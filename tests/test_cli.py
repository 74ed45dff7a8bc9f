import filecmp
import json
import math
import os
import re
import subprocess
import sys
import types

import numpy as np
import pytest

import arago
import arago.classical
import arago.interaction
import arago.poisson
from arago.cli import (
    PRESET_NAMES,
    _profile_csv,
    load_preset,
    main,
    parse_config,
    run_scenario,
    sweep,
)
from arago.config import ConfigError, parse_kv, serialize_kv
from references import serialize_config


def _package_env():
    return dict(os.environ,
                PYTHONPATH=os.path.dirname(os.path.dirname(arago.__file__)))


def test_cli_import_loads_no_scipy():
    # the package needs numpy alone: a fresh interpreter importing the
    # command line must load no scipy module. Only the tests use scipy: the
    # trajectory reference of tests/references.py solves its rays with
    # interaction.solve_ivp, which imports scipy.integrate on its first call.
    out = subprocess.run(
        [sys.executable, "-c", "import json, sys, arago.cli; "
         "print(json.dumps(sorted(sys.modules)))"],
        env=_package_env(), capture_output=True, text=True, check=True)
    loaded = json.loads(out.stdout)
    assert "numpy" in loaded
    assert not [m for m in loaded if m == "scipy" or m.startswith("scipy.")]


# runs `simulate` with every scipy import refused
_WITHOUT_SCIPY = """\
import sys


class RefuseScipy:
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ImportError(f"{name} is blocked")
        return None


sys.meta_path.insert(0, RefuseScipy())
from arago.cli import main
sys.exit(main(sys.argv[1:]))
"""


@pytest.mark.parametrize("preset", PRESET_NAMES)
def test_presets_run_without_scipy(tmp_path, preset):
    # a preset run imports no scipy module, and writes the same bytes as a
    # run that could
    blocked, free = tmp_path / "blocked", tmp_path / "free"
    run = subprocess.run(
        [sys.executable, "-c", _WITHOUT_SCIPY, "--preset", preset,
         "--out", str(blocked)],
        env=_package_env(), capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    assert main(["--preset", preset, "--out", str(free)]) == 0
    names = sorted(p.name for p in free.iterdir())
    assert names and sorted(p.name for p in blocked.iterdir()) == names
    for name in names:
        assert (blocked / name).read_bytes() == (free / name).read_bytes(), \
            name


def test_parse_fig2a():
    cfg = parse_config(load_preset("fig2a"))
    assert cfg.mode == "poisson_ideal"
    assert cfg.poisson.R == 500e-9
    assert cfg.poisson.L1 == 0.125
    assert cfg.poisson.L2 == 0.125
    assert cfg.n_u == 600
    assert cfg.particle.wavelength() == pytest.approx(1e-11, rel=1e-8)
    # the design point sits right on the spot-visibility boundary
    par = cfg.poisson.dimensionless()
    assert par.k * par.ell >= 0.4


def test_all_presets_parse():
    assert len(PRESET_NAMES) == 6
    for name in PRESET_NAMES:
        cfg = parse_config(load_preset(name))
        assert cfg.mode in ("farfield", "poisson_ideal", "poisson_compare")


def test_load_preset_unknown():
    with pytest.raises(ConfigError, match="unknown preset"):
        load_preset("fig9")


def test_serialize_roundtrip():
    text = serialize_config(parse_config(load_preset("fig3-disc")))
    assert serialize_config(parse_config(text)) == text
    assert text.endswith("\n")
    assert "\r" not in text


def test_parse_rejects_unknown_key():
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config("mode = poisson_ideal\nposion.R = 1e-6\n")


def test_parse_rejects_bad_mode():
    with pytest.raises(ConfigError, match="mode"):
        parse_config("mode = sideways\n")


def test_parse_rejects_cross_mode_keys():
    text = (load_preset("fig2a").rstrip("\n")
            + "\nfarfield.d = 100e-9\n")
    with pytest.raises(ConfigError, match="farfield"):
        parse_config(text)


@pytest.mark.parametrize("key,value", [
    ("numerics.rel_tol", "5"), ("grid.n_u", "3"), ("grid.n_u", "10"),
    ("grid.u_max", "4"), ("averaging.source", "on"), ("poisson.R", "5e-7")])
def test_farfield_refuses_near_field_keys(tmp_path, capsys, key, value):
    # far field reads only the particle and farfield sections: a key of any
    # other section is a configuration error that names it, valid value or
    # not, and nothing is written
    items = parse_kv(load_preset("farfield-30k"))
    items[key] = value
    cfg_path = tmp_path / "scenario.cfg"
    cfg_path.write_text(serialize_kv(items))
    out = tmp_path / "out"
    assert main([str(cfg_path), "--out", str(out)]) == 2
    assert f"farfield mode does not accept ['{key}']" in (
        capsys.readouterr().err)
    assert not out.exists()


def test_farfield_refuses_a_near_field_sweep(tmp_path, capsys):
    # a sweep validates every value first, so a far-field sweep over a key
    # it would not read writes no scenario
    out = tmp_path / "out"
    assert main(["--preset", "farfield-30k", "--out", str(out),
                 "--sweep", "grid.n_u=10,20"]) == 2
    assert "farfield mode does not accept ['grid.n_u']" in (
        capsys.readouterr().err)
    assert not out.exists()


def test_parse_requires_particle_fields():
    with pytest.raises(ConfigError, match="particle"):
        parse_config("mode = poisson_ideal\npoisson.R = 5e-7\n"
                     "poisson.L1 = 0.125\npoisson.L2 = 0.125\n")


def test_parse_disc_needs_thickness():
    text = load_preset("fig3-disc").replace("poisson.thickness = 10e-9\n", "")
    with pytest.raises(ConfigError, match="thickness"):
        parse_config(text)


def test_parse_sphere_rejects_thickness():
    text = (load_preset("fig3-sphere").rstrip("\n")
            + "\npoisson.thickness = 10e-9\n")
    with pytest.raises(ConfigError, match="thickness"):
        parse_config(text)


def test_run_fig2a(tmp_path):
    cfg = parse_config(load_preset("fig2a"))
    res = run_scenario(cfg, str(tmp_path))
    names = sorted(os.path.basename(p) for p in res.paths)
    assert names == ["profile_ideal.csv", "visibility.kv"]
    assert res.w0 == pytest.approx(1.0, abs=1e-3)

    lines = (tmp_path / "profile_ideal.csv").read_bytes().split(b"\n")
    assert lines[0].startswith(b"# u = screen radius")
    assert lines[1] == b"u,w"
    # 600 grid rows, a comment, a header and a trailing newline
    assert len(lines) == 603
    row = lines[2].decode()
    assert re.fullmatch(r"\d\.\d{8}e[+-]\d{2},\d\.\d{8}e[+-]\d{2}", row)
    first_u, first_w = (float(x) for x in row.split(","))
    assert first_u == 0.0
    assert first_w == pytest.approx(1.0, abs=1e-3)


def test_run_fig2a_visibility_rows(tmp_path):
    run_scenario(parse_config(load_preset("fig2a")), str(tmp_path))
    rows = parse_kv((tmp_path / "visibility.kv").read_text())
    assert rows["spot_vs_shadow.satisfied"] == "true"
    assert rows["shadow_existence.satisfied"] == "true"
    assert float(rows["source_radius.bound"]) == pytest.approx(1e-6, rel=1e-6)


def test_run_farfield(tmp_path):
    cfg = parse_config(load_preset("farfield-30k"))
    res = run_scenario(cfg, str(tmp_path))
    names = sorted(os.path.basename(p) for p in res.paths)
    assert names == ["farfield_report.kv", "farfield_report.txt"]
    rows = parse_kv((tmp_path / "farfield_report.kv").read_text())
    for check in ("particle_size", "collimation", "slit_clogging",
                  "mass_limit", "gravity_dephasing", "coriolis_dephasing",
                  "coherence", "transit_time", "free_fall", "required_flux"):
        assert rows[f"{check}.satisfied"] == "true", check
        assert f"{check}.value" in rows
        assert f"{check}.bound" in rows
        assert f"{check}.note" in rows


def test_run_compare_mode(tmp_path):
    cfg = parse_config(load_preset("fig3-disc"))
    res = run_scenario(cfg, str(tmp_path))
    names = sorted(os.path.basename(p) for p in res.paths)
    assert names == ["distinguishability.kv", "profile_classical.csv",
                     "profile_quantum.csv", "visibility.kv"]
    assert res.distinguishability > 1.0
    rows = parse_kv((tmp_path / "distinguishability.kv").read_text())
    assert float(rows["ratio"]) == pytest.approx(res.distinguishability,
                                                 rel=1e-8)
    assert float(rows["l1_shadow"]) > 0
    assert float(rows["u_probe"]) > 0
    # the two profiles share one origin-free grid
    q = (tmp_path / "profile_quantum.csv").read_text().splitlines()
    c = (tmp_path / "profile_classical.csv").read_text().splitlines()
    assert len(q) == len(c)
    assert q[2].split(",")[0] == c[2].split(",")[0]
    assert float(q[2].split(",")[0]) > 0


# artifacts of each near-field mode; compare writes both engines' profiles
NEAR_FIELD_ARTIFACTS = {
    "poisson_ideal": ["profile_ideal.csv", "visibility.kv"],
    "poisson_quantum": ["profile_quantum.csv", "visibility.kv"],
    "poisson_classical": ["profile_classical.csv", "visibility.kv"],
    "poisson_compare": ["distinguishability.kv", "profile_classical.csv",
                        "profile_quantum.csv", "visibility.kv"],
}


@pytest.mark.parametrize("source,velocity", [("on", "off"), ("off", "off"),
                                             ("on", "on")],
                         ids=["on", "off", "velocity"])
def test_near_field_modes(tmp_path, source, velocity):
    # every near-field mode through run_scenario on the fig3-disc geometry,
    # with source averaging on or off, and with both averagings on; a
    # single-engine mode writes the profile compare mode writes for it
    text = (load_preset("fig3-disc")
            .replace("grid.n_u = 241", "grid.n_u = 40")
            .replace("averaging.source = on", f"averaging.source = {source}")
            + ("averaging.velocity = on\nparticle.dv_rel = 0.1\n"
               if velocity == "on" else ""))
    for mode, artifacts in NEAR_FIELD_ARTIFACTS.items():
        cfg = parse_config(text.replace("mode = poisson_compare",
                                        f"mode = {mode}"))
        assert (cfg.mode, cfg.n_u, cfg.source_averaging,
                cfg.velocity_averaging) == (mode, 40, source == "on",
                                            velocity == "on")
        res = run_scenario(cfg, str(tmp_path / mode))
        assert sorted(os.path.basename(p) for p in res.paths) == artifacts

    def profile(mode, name):
        return tmp_path / mode / f"profile_{name}.csv"

    assert filecmp.cmp(profile("poisson_classical", "classical"),
                       profile("poisson_compare", "classical"), shallow=False)
    # the compare grid is the single-mode grid without its origin
    q_only, q_cmp = (np.loadtxt(profile(mode, "quantum"), delimiter=",",
                                skiprows=2)
                     for mode in ("poisson_quantum", "poisson_compare"))
    assert q_only.shape == (40, 2) and q_only[0, 0] == 0.0
    assert np.array_equal(q_only[1:, 0], q_cmp[:, 0])
    np.testing.assert_allclose(q_only[1:, 1], q_cmp[:, 1], rtol=1e-9, atol=0)



@pytest.mark.parametrize("velocity", ["off", "on"])
def test_no_wall_interaction_leaves_the_umbra_dark(tmp_path, velocity):
    # the abstract's simple distinction without particle-wall interactions:
    # at alpha = 0 the classical rays run straight, so the fig3-disc compare
    # run writes a classical profile of exact zeros across the umbra
    # u < ell - beta (39 of its 240 radii) and an infinite spot ratio, with
    # velocity averaging off and on
    text = load_preset("fig3-disc") + "particle.alpha = 0\n"
    if velocity == "on":
        text += "averaging.velocity = on\nparticle.dv_rel = 0.1\n"
    cfg = parse_config(text)
    run_scenario(cfg, str(tmp_path))
    assert parse_kv((tmp_path / "distinguishability.kv").read_text())[
        "ratio"] == "inf"
    u, w = np.loadtxt(tmp_path / "profile_classical.csv", delimiter=",",
                      skiprows=2).T
    p = cfg.poisson.dimensionless()
    umbra = u < p.ell - p.beta
    assert umbra.sum() == 39
    assert np.all(w[umbra] == 0.0)
    assert np.all(w[u > p.ell] > 0.0)


@pytest.fixture
def interaction_builds(monkeypatch):
    """Counts the EikonalPhase builds and the capture_eta calls, the latter
    under every name an arago module binds capture_eta to."""
    builds = {"phase": 0, "eta": 0}
    eta = arago.interaction.capture_eta
    init = arago.interaction.EikonalPhase.__init__

    def counted_eta(*args):
        builds["eta"] += 1
        return eta(*args)

    def counted_init(self, *args):
        builds["phase"] += 1
        init(self, *args)

    for name, module in list(sys.modules.items()):
        if name == "arago" or name.startswith("arago."):
            for attr, value in list(vars(module).items()):
                if value is eta:
                    monkeypatch.setattr(module, attr, counted_eta)
    monkeypatch.setattr(arago.interaction.EikonalPhase, "__init__",
                        counted_init)
    return builds


@pytest.mark.parametrize("preset,velocity,nodes", [
    ("fig3-disc", "on", 9), ("fig3-sphere", "on", 9),
    ("fig3-sphere", "off", 1)])
def test_compare_run_builds_each_node_once(tmp_path, interaction_builds,
                                           preset, velocity, nodes):
    # both engines of a compare run read the node list that run_scenario
    # builds: one phase and one capture radius per velocity node. Each
    # engine once built its own, 19 phases and 18 capture radii for nine
    # nodes, and 1 and 2 for one
    text = load_preset(preset).replace("grid.n_u = 241", "grid.n_u = 40")
    if velocity == "on":
        text += "averaging.velocity = on\nparticle.dv_rel = 0.1\n"
    run_scenario(parse_config(text), str(tmp_path))
    assert interaction_builds == {"phase": nodes, "eta": nodes}


def test_rerun_byte_identical(tmp_path):
    cfg = parse_config(load_preset("fig2a"))
    a, b = tmp_path / "a", tmp_path / "b"
    run_scenario(cfg, str(a))
    run_scenario(cfg, str(b))
    assert filecmp.cmp(a / "profile_ideal.csv", b / "profile_ideal.csv",
                       shallow=False)
    assert filecmp.cmp(a / "visibility.kv", b / "visibility.kv",
                       shallow=False)


def test_profile_csv_rows_are_the_format_spec_bytes():
    # each row is f"{u:.8e},{w:.8e}", byte for byte, at signed zeros, the
    # smallest subnormal, the exponent extremes and the non-finite values
    # (which no RadialProfile holds, so the writer gets bare arrays)
    values = [0.0, -0.0, 5e-324, 1e-300, 1e300, math.inf, -math.inf, math.nan]
    profile = types.SimpleNamespace(u=np.array(values),
                                    w=np.array(values[::-1]))
    rows = _profile_csv(profile).split("\n", 2)[2]
    assert rows == "".join(f"{a:.8e},{b:.8e}\n"
                           for a, b in zip(values, values[::-1]))
    assert rows.split("\n")[1] == "-0.00000000e+00,-inf"


def _small_fig3_sphere(**overrides):
    items = dict(parse_kv(load_preset("fig3-sphere")), **{"grid.n_u": "41"})
    items.update(overrides)
    return parse_config(serialize_kv(items))


def test_sweep_matches_single_runs(tmp_path):
    # a single run builds the same classical source-average operator that
    # the fig3-sphere compare sweep shares: every file matches byte for byte
    cases = {"fig2a": (parse_config(load_preset("fig2a")), ["2.02553946"]),
             "fig3-sphere": (_small_fig3_sphere(), ["1.5", "2.5"])}
    for preset, (cfg, values) in cases.items():
        out = tmp_path / preset
        summary = sweep(cfg, "particle.v_long", values, str(out / "sw"))
        for i, value in enumerate(values):
            single = out / f"single_{i:02d}"
            run_scenario(parse_config(serialize_kv(
                dict(cfg.raw, **{"particle.v_long": value}))), str(single))
            swept = out / "sw" / f"particle_v_long_{i:02d}"
            assert sorted(os.listdir(swept)) == sorted(os.listdir(single))
            for name in os.listdir(single):
                assert filecmp.cmp(swept / name, single / name,
                                   shallow=False), name
        lines = open(summary).read().splitlines()
        assert lines[1] == "value,w0,spot_radius,distinguishability"
        assert len(lines) == 2 + len(values)


@pytest.fixture
def operator_builds(monkeypatch):
    """Counts the source-average operators built, classical ("polar") and
    quantum ("arc")."""
    builds = {"polar": 0, "arc": 0}
    for name, module in (("polar", arago.classical), ("arc", arago.poisson)):
        build = getattr(module, f"{name}_average_operator")

        def counted(*args, name=name, build=build):
            builds[name] += 1
            return build(*args)
        monkeypatch.setattr(module, f"{name}_average_operator", counted)
    return builds


def test_sweep_shares_one_operator_per_geometry(tmp_path, operator_builds):
    # the velocity does not enter the source average: three velocities
    # share one geometry and build once
    cfg = _small_fig3_sphere()
    sweep(cfg, "particle.v_long", ["1.5", "2", "2.5"], str(tmp_path / "v"))
    assert operator_builds == {"polar": 1, "arc": 1}
    # each source radius is its own geometry: one build each
    sweep(cfg, "poisson.R0", ["250e-9", "500e-9"], str(tmp_path / "r0"))
    assert operator_builds == {"polar": 3, "arc": 3}
    # a single run builds its own
    run_scenario(cfg, str(tmp_path / "single"))
    assert operator_builds == {"polar": 4, "arc": 4}


def test_operator_lives_for_one_sweep(tmp_path, operator_builds):
    # a second sweep of the same geometry in the same process builds again
    cfg_path = tmp_path / "scenario.cfg"
    cfg_path.write_text(serialize_config(_small_fig3_sphere()))
    for run in ("a", "b"):
        assert main([str(cfg_path), "--out", str(tmp_path / run),
                     "--sweep", "particle.v_long=1.5,2"]) == 0
    assert operator_builds == {"polar": 2, "arc": 2}


def test_sweep_velocity_scaling(tmp_path):
    # doubling the velocity doubles k and halves the spot radius
    cfg = parse_config(load_preset("fig2b"))  # k = 2 at 20.2553946 m/s
    summary = sweep(cfg, "particle.v_long",
                    ["10.1276973", "20.2553946", "40.5107892"],
                    str(tmp_path))
    rows = [ln.split(",") for ln in open(summary).read().splitlines()[2:]]
    radii = [float(r[2]) for r in rows]
    assert radii[0] > radii[1] > radii[2]
    assert radii[0] / radii[1] == pytest.approx(2.0, abs=0.2)


def test_sweep_rejects_bad_key(tmp_path):
    cfg = parse_config(load_preset("fig2a"))
    with pytest.raises(ConfigError, match="sweep"):
        sweep(cfg, "mode", ["farfield"], str(tmp_path))
    with pytest.raises(ConfigError, match="sweep"):
        sweep(cfg, "nonsense.key", ["1"], str(tmp_path))


def test_sweep_validates_before_running(tmp_path):
    cfg = parse_config(load_preset("fig2a"))
    with pytest.raises(ConfigError):
        sweep(cfg, "particle.v_long", ["2.0", "not_a_number"],
              str(tmp_path))
    # nothing was computed for the valid value either
    assert not (tmp_path / "particle_v_long_00").exists()


def test_main_success(tmp_path, capsys):
    code = main(["--preset", "fig2a", "--out", str(tmp_path)])
    assert code == 0
    out = capsys.readouterr().out
    assert "profile_ideal.csv" in out
    assert (tmp_path / "profile_ideal.csv").exists()


def test_main_config_file(tmp_path, capsys):
    cfg_path = tmp_path / "scenario.cfg"
    cfg_path.write_text(load_preset("fig2a"))
    code = main([str(cfg_path), "--out", str(tmp_path / "out")])
    assert code == 0
    assert (tmp_path / "out" / "profile_ideal.csv").exists()


def test_main_missing_file(tmp_path, capsys):
    code = main([str(tmp_path / "absent.cfg")])
    assert code == 2
    assert "absent.cfg" in capsys.readouterr().err


def test_main_bad_config(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("mode = poisson_ideal\nbogus.key = 1\n")
    assert main([str(bad), "--out", str(tmp_path / "out")]) == 2
    assert "bogus.key" in capsys.readouterr().err


def test_main_requires_exactly_one_source(tmp_path, capsys):
    assert main(["--out", str(tmp_path)]) == 2
    cfg_path = tmp_path / "scenario.cfg"
    cfg_path.write_text(load_preset("fig2a"))
    assert main([str(cfg_path), "--preset", "fig2a"]) == 2


@pytest.mark.parametrize("key,value", [
    ("numerics.max_subdivisions", "inf"), ("grid.n_u", "inf"),
    ("particle.v_long", "inf"), ("grid.n_u", "nan"), ("grid.u_max", "-1"),
    ("grid.u_max", "0"), ("grid.u_max", "inf"), ("grid.u_max", "nan"),
    ("grid.n_u", "100.9"), ("numerics.max_subdivisions", "2.5")])
def test_main_rejects_non_finite_and_non_positive_numbers(tmp_path, capsys,
                                                          key, value):
    # a number that cannot be used is a configuration error: exit 2 before
    # anything is computed or written; a fractional integer key is refused,
    # never truncated
    items = parse_kv(load_preset("fig2a"))
    items[key] = value
    cfg_path = tmp_path / "scenario.cfg"
    cfg_path.write_text(serialize_kv(items))
    out = tmp_path / "out"
    assert main([str(cfg_path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and key in err
    assert not out.exists()


def test_integral_float_parses_as_integer():
    items = parse_kv(load_preset("fig2a"))
    items["grid.n_u"] = "241.0"
    items["numerics.max_subdivisions"] = "3e3"
    cfg = parse_config(serialize_kv(items))
    assert cfg.n_u == 241 and type(cfg.n_u) is int
    assert cfg.quad.max_subdivisions == 3000
    assert type(cfg.quad.max_subdivisions) is int


def test_main_bad_sweep_value(tmp_path, capsys):
    assert main(["--preset", "fig2a", "--out", str(tmp_path),
                 "--sweep", "particle.v_long=2.0,oops"]) == 2
    # a key that cannot be swept is a configuration error too
    assert main(["--preset", "fig2a", "--out", str(tmp_path),
                 "--sweep", "mode=poisson_ideal"]) == 2
    assert "cannot sweep over 'mode'" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_main_unknown_particle_preset(tmp_path, capsys):
    # an unknown species is a configuration error: exit 2 with the known
    # names and nothing written, for a single run and inside a sweep
    cfg_path = tmp_path / "scenario.cfg"
    cfg_path.write_text(load_preset("fig3-sphere").replace(
        "particle.preset = au100", "particle.preset = nosuch"))
    out = tmp_path / "out"
    assert main([str(cfg_path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "config error: particle: unknown species preset 'nosuch'" in err
    assert "Traceback" not in err
    assert main(["--preset", "fig3-sphere", "--out", str(out),
                 "--sweep", "particle.preset=c60,nosuch"]) == 2
    assert "'nosuch'" in capsys.readouterr().err
    assert not out.exists()


def test_main_numerical_failure(tmp_path, capsys):
    # a starved quadrature budget must exit 3 and leave no partial artifacts
    # (fig2b: the k = 2 integrand needs real subdivision depth)
    hard = tmp_path / "hard.cfg"
    hard.write_text(load_preset("fig2b").rstrip("\n") + "\n"
                    "numerics.rel_tol = 1e-14\n"
                    "numerics.abs_tol = 1e-300\n"
                    "numerics.max_subdivisions = 2\n")
    out = tmp_path / "out"
    assert main([str(hard), "--out", str(out)]) == 3
    assert capsys.readouterr().err
    assert not out.exists()


def test_main_refuses_a_grid_with_no_radius_in_the_shadow(tmp_path, capsys):
    # fig3-sphere compare with a point source on 30 radii up to u = 200:
    # the first positive radius, 6.90, lies outside the shadow u < ell = 2,
    # so there is no central ratio to report. The run once exited 0 with a
    # ratio of 1.065 taken there and l1_shadow = 0 over an empty shadow; it
    # must exit 3 and leave no artifact
    cfg_path = tmp_path / "scenario.cfg"
    cfg_path.write_text(load_preset("fig3-sphere")
                        .replace("averaging.source = on",
                                 "averaging.source = off")
                        .replace("grid.n_u = 241", "grid.n_u = 30")
                        + "grid.u_max = 200\n")
    out = tmp_path / "out"
    assert main([str(cfg_path), "--out", str(out)]) == 3
    assert "shadow" in capsys.readouterr().err
    assert not out.exists()


def test_main_sweep(tmp_path, capsys):
    code = main(["--preset", "fig2a", "--out", str(tmp_path), "--sweep",
                 "particle.v_long=2.02553946,4.0510789"])
    assert code == 0
    assert (tmp_path / "summary.csv").exists()
    assert (tmp_path / "particle_v_long_01" / "profile_ideal.csv").exists()


def test_main_quantum_needs_alpha(tmp_path, capsys):
    # without an interaction there is no quantum profile to compute: a
    # configuration error before anything is written, also inside a sweep
    text = (load_preset("fig3-sphere")
            .replace("mode = poisson_compare", "mode = poisson_quantum")
            + "particle.alpha = 0\n")
    cfg_path = tmp_path / "scenario.cfg"
    cfg_path.write_text(text)
    out = tmp_path / "out"
    assert main([str(cfg_path), "--out", str(out)]) == 2
    assert "particle.alpha" in capsys.readouterr().err
    cfg_path.write_text(text.replace("particle.alpha = 0\n", ""))
    assert main([str(cfg_path), "--out", str(out),
                 "--sweep", "particle.alpha=5e-28,0"]) == 2
    assert not out.exists()
    # the other near-field modes fall back to the ideal obstacle
    for mode in ("poisson_ideal", "poisson_classical", "poisson_compare"):
        cfg = parse_config(text.replace("mode = poisson_quantum",
                                        f"mode = {mode}"))
        assert cfg.particle.alpha == 0.0


def test_main_failed_sweep_removes_its_outputs(tmp_path, capsys):
    # the second value starves the quadrature; the first scenario's files
    # and the scenario directories the sweep made go, nothing else does
    out = tmp_path / "out"
    kept = out / "numerics_max_subdivisions_00" / "notes.txt"
    kept.parent.mkdir(parents=True)
    kept.write_text("not written by the sweep\n")
    assert main(["--preset", "fig2b", "--out", str(out), "--sweep",
                 "numerics.max_subdivisions=2000,2"]) == 3
    assert "numerical failure" in capsys.readouterr().err
    assert sorted(p.relative_to(out).as_posix() for p in out.rglob("*")) == [
        "numerics_max_subdivisions_00",
        "numerics_max_subdivisions_00/notes.txt"]


@pytest.mark.parametrize("swept", [False, True])
def test_failed_run_removes_every_directory_it_made(tmp_path, capsys,
                                                    swept):
    # fig2b with the quadrature starved to 2 subdivisions, as a single run
    # and as the second scenario of a sweep, into kept/t/a/b where only
    # kept exists: exit 3, and t, a and b, which the run made, go, deepest
    # first; kept, which was there before, stays
    kept = tmp_path / "kept"
    kept.mkdir()
    out = kept / "t" / "a" / "b"
    if swept:
        args = ["--preset", "fig2b", "--sweep",
                "numerics.max_subdivisions=2000,2"]
    else:
        hard = tmp_path / "hard.cfg"
        hard.write_text(load_preset("fig2b").rstrip("\n") + "\n"
                        "numerics.max_subdivisions = 2\n")
        args = [str(hard)]
    assert main(args + ["--out", str(out)]) == 3
    assert "numerical failure" in capsys.readouterr().err
    assert kept.is_dir() and not list(kept.iterdir())


@pytest.mark.parametrize("swept", [False, True])
@pytest.mark.parametrize("below", ["", "x/y"])
def test_main_refuses_an_out_on_or_under_a_file(tmp_path, capsys, below,
                                                swept):
    # an --out that is a regular file, or lies beneath one, cannot hold the
    # outputs: a configuration error, one line on stderr and no traceback,
    # with the file as it was and nothing else made
    blocker = tmp_path / "file"
    blocker.write_text("not a directory\n")
    args = ["--preset", "fig2a", "--out", str(blocker / below)]
    if swept:
        args += ["--sweep", "particle.v_long=2,3"]
    assert main(args) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: cannot write the outputs")
    assert err.count("\n") == 1
    assert blocker.read_text() == "not a directory\n"
    assert list(tmp_path.iterdir()) == [blocker]


@pytest.mark.parametrize("stage", ["run", "sweep", "write"])
def test_interrupted_run_removes_what_it_made(tmp_path, monkeypatch, stage):
    # a KeyboardInterrupt inside the quantum profile of fig3-disc (a single
    # run's one call, or a four-velocity sweep's third, after two scenarios
    # were written), or right after a single run's writer has made its
    # second file. The interrupt propagates, and kept/deep/x, the finished
    # scenarios and every file go; kept, which was there before, stays
    kept = tmp_path / "kept"
    kept.mkdir()
    calls = []
    if stage == "write":
        def interrupted(path, *args, **kwargs):
            calls.append(path)
            fh = open(path, *args, **kwargs)
            if len(calls) == 2:
                fh.close()
                raise KeyboardInterrupt
            return fh
        monkeypatch.setattr(arago.cli, "open", interrupted, raising=False)
    else:
        averaged_pattern = arago.poisson.averaged_pattern

        def interrupted(*args, **kwargs):
            calls.append(None)
            if len(calls) == (3 if stage == "sweep" else 1):
                raise KeyboardInterrupt
            return averaged_pattern(*args, **kwargs)
        monkeypatch.setattr(arago.poisson, "averaged_pattern", interrupted)
    args = ["--preset", "fig3-disc", "--out", str(kept / "deep" / "x")]
    if stage == "sweep":
        args += ["--sweep", "particle.v_long=1.5,2,3,4"]
    with pytest.raises(KeyboardInterrupt):
        main(args)
    assert len(calls) == (3 if stage == "sweep" else 1 if stage == "run"
                          else 2)
    assert not list(kept.iterdir())


def test_failed_rerun_keeps_the_old_outputs(tmp_path, capsys):
    # fig2b starved to 2 subdivisions fails while computing, so the files
    # an earlier run left in --out stay byte for byte
    out = tmp_path / "out"
    out.mkdir()
    old = {"visibility.kv": b"old visibility\n",
           "profile_ideal.csv": b"old profile\n"}
    for name, data in old.items():
        (out / name).write_bytes(data)
    hard = tmp_path / "hard.cfg"
    hard.write_text(load_preset("fig2b").rstrip("\n") + "\n"
                    "numerics.max_subdivisions = 2\n")
    assert main([str(hard), "--out", str(out)]) == 3
    assert "numerical failure" in capsys.readouterr().err
    assert {p.name: p.read_bytes() for p in out.iterdir()} == old
