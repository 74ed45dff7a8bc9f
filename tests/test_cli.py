import filecmp
import json
import math
import os
import re
import subprocess
import sys

import numpy as np
import pytest

import arago
from arago.cli import (
    PRESET_NAMES,
    load_preset,
    main,
    parse_config,
    run_scenario,
    serialize_config,
    sweep,
)
from arago.config import ConfigError, parse_kv


def test_cli_import_loads_only_numpy_and_scipy_special():
    # the package needs numpy and scipy.special only: a fresh interpreter
    # importing the command line must load none of the heavier scipy
    # packages. scipy.integrate, and with it scipy.optimize, scipy.sparse
    # and scipy.linalg, is imported on first use by the test-only shooting
    # reference.
    env = dict(os.environ,
               PYTHONPATH=os.path.dirname(os.path.dirname(arago.__file__)))
    out = subprocess.run(
        [sys.executable, "-c", "import json, sys, arago.cli; "
         "print(json.dumps(sorted(sys.modules)))"],
        env=env, capture_output=True, text=True, check=True)
    loaded = json.loads(out.stdout)
    assert "scipy.interpolate" not in loaded
    assert "scipy.special" in loaded
    for pkg in ("scipy.integrate", "scipy.optimize", "scipy.interpolate",
                "scipy.sparse", "scipy.linalg"):
        assert not [m for m in loaded
                    if m == pkg or m.startswith(pkg + ".")], pkg


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


@pytest.mark.parametrize("source", ["on", "off"])
def test_near_field_modes(tmp_path, source):
    # every near-field mode through run_scenario on the fig3-disc geometry;
    # a single-engine mode writes the profile compare mode writes for it
    text = (load_preset("fig3-disc")
            .replace("grid.n_u = 241", "grid.n_u = 40")
            .replace("averaging.source = on", f"averaging.source = {source}"))
    for mode, artifacts in NEAR_FIELD_ARTIFACTS.items():
        cfg = parse_config(text.replace("mode = poisson_compare",
                                        f"mode = {mode}"))
        assert (cfg.mode, cfg.n_u, cfg.source_averaging) == (
            mode, 40, source == "on")
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


def test_rerun_byte_identical(tmp_path):
    cfg = parse_config(load_preset("fig2a"))
    a, b = tmp_path / "a", tmp_path / "b"
    run_scenario(cfg, str(a))
    run_scenario(cfg, str(b))
    assert filecmp.cmp(a / "profile_ideal.csv", b / "profile_ideal.csv",
                       shallow=False)
    assert filecmp.cmp(a / "visibility.kv", b / "visibility.kv",
                       shallow=False)


def test_sweep_matches_single_runs(tmp_path):
    cfg = parse_config(load_preset("fig2a"))
    summary = sweep(cfg, "particle.v_long", ["2.02553946"],
                    str(tmp_path / "sw"))
    single = tmp_path / "single"
    run_scenario(cfg, str(single))
    assert filecmp.cmp(tmp_path / "sw" / "particle_v_long_00"
                       / "profile_ideal.csv",
                       single / "profile_ideal.csv", shallow=False)
    lines = open(summary).read().splitlines()
    assert lines[1] == "value,w0,spot_radius,distinguishability"
    assert len(lines) == 3


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


def test_main_bad_sweep_value(tmp_path, capsys):
    assert main(["--preset", "fig2a", "--out", str(tmp_path),
                 "--sweep", "particle.v_long=2.0,oops"]) == 2
    # a key that cannot be swept is a configuration error too
    assert main(["--preset", "fig2a", "--out", str(tmp_path),
                 "--sweep", "mode=poisson_ideal"]) == 2
    assert "cannot sweep over 'mode'" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


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
    assert not list(out.glob("*.csv"))


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
