"""arago benchmark: drives the `simulate` entry point on its workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
./src. Workloads are defined in workloads.py, metrics in BENCHMARK.json.

--trace 0 measures the end-to-end metrics with tracing off:
  setup_s          cold start, median of SETUP_PROBES fresh interpreters
                   that import arago.cli and parse the workload's scenario
  wall_cal         median wall time of one pass of the workload, each in
                   units of the calibration time around it (see below)
  scenario_cal.p50 median time of one run_scenario call, each in units of
                   the calibration time around its pass
  peak_rss_mb      peak resident memory of the workload's own process
  failed_frac      failed over attempted scenarios; printed, and returned
                   as the `failed` and `attempted` counts
The raw times, wall_s and scenario_s.p50 in seconds, are printed and
recorded too, with cal_s, the median time of a fixed calibration kernel;
the worker runs it just before and after every pass and takes the mean of
the two as the pass's calibration time. On a shared host
the CPU's speed can drift by 2x within minutes, which moves every time
alike; dividing by cal_s, measured in the same moments, cancels that drift
but keeps any change of the program's own speed.
--trace 1 alternates untraced and traced passes and reports the per-layer
metrics: self time per module, work counts, and the tracing overhead
(median traced pass minus median untraced pass).

Every pass is checked (see checks.py); any failure makes `correct` false.
BLAS and OpenMP run single-threaded. Outputs, a result record with the
machine facts and raw samples, and the spans of one traced pass go to
.perfbench_out/. The last line of standard output is the JSON result.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from workloads import WORKLOADS, make_inputs  # noqa: E402

SETUP_PROBES = 7
DEADLINE_S = 170.0
OUT_DIR = ".perfbench_out"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS")

SETUP_PROBE = """\
import sys, time
start = time.perf_counter()
import arago.cli
with open(sys.argv[1], encoding="utf-8") as fh:
    arago.cli.parse_config(fh.read())
print(time.perf_counter() - start)
"""


def child_env(root):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(root, "src")
    env["PYTHONHASHSEED"] = "0"
    for var in THREAD_VARS:
        env[var] = "1"
    return env


def run_child(cmd, env, deadline):
    """Run cmd to completion or kill it at the deadline; returns stdout."""
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    try:
        out, err = proc.communicate(timeout=max(deadline - time.monotonic(),
                                                1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise SystemExit(f"{cmd[1]} did not finish in time")
    if proc.returncode != 0:
        sys.stderr.write(err)
        raise SystemExit(f"{cmd[1]} exited with {proc.returncode}")
    return out


def setup_times(config_path, env, deadline):
    """Cold-start times; one unmeasured probe first fills the bytecode
    cache."""
    cmd = [sys.executable, "-c", SETUP_PROBE, config_path]
    run_child(cmd, env, deadline)
    return [float(run_child(cmd, env, deadline).split()[-1])
            for _ in range(SETUP_PROBES)]


def _read(path, marker):
    try:
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                if line.startswith(marker):
                    return line
    except OSError:
        pass
    return None


def machine(env, root):
    """Machine and library facts recorded with every result."""
    cpu = _read("/proc/cpuinfo", "model name")
    mounts = []
    try:
        with open("/proc/self/mounts", encoding="utf-8") as fh:
            mounts = [line.split() for line in fh]
    except OSError:
        pass
    # the filesystem of the deepest mount point above the output directory
    fs = max((m for m in mounts if len(m) > 2
              and os.path.join(root, "").startswith(
                  os.path.join(m[1], ""))),
             key=lambda m: len(m[1]), default=(None, None, "unknown"))[2]
    libs = subprocess.run(
        [sys.executable, "-c",
         "import json, numpy, scipy; c = numpy.show_config(mode='dicts');"
         "b = c.get('Build Dependencies', {}).get('blas', {});"
         "print(json.dumps([numpy.__version__, scipy.__version__,"
         " b.get('name', '?') + ' ' + str(b.get('version', '?'))]))"],
        env=env, capture_output=True, text=True, timeout=60)
    numpy_v, scipy_v, blas = (json.loads(libs.stdout.splitlines()[-1])
                              if libs.returncode == 0 else ["?"] * 3)
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu.split(":", 1)[1].strip() if cpu else platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy_v, "scipy": scipy_v, "blas": blas,
        "blas_threads": env["OPENBLAS_NUM_THREADS"],
        "output_fs": fs,
    }


def _median_ratio(times, cals):
    return statistics.median(t / c for t, c in zip(times, cals))


def end_to_end(setup, res, scenarios):
    """name -> (value, samples) for the untraced run."""
    walls, cals = res["wall_s"], res["cal_s"]
    scen, scen_cals = res["scenario_s"], res["scenario_cal_s"]
    if not scen:
        # without a run_scenario to time, share each pass among its scenarios
        scen, scen_cals = [w / scenarios for w in walls], cals
    return {
        "setup_s": (statistics.median(setup), len(setup)),
        "wall_cal": (_median_ratio(walls, cals), len(walls)),
        "scenario_cal.p50": (_median_ratio(scen, scen_cals), len(scen)),
        "wall_s": (statistics.median(walls), len(walls)),
        "scenario_s.p50": (statistics.median(scen), len(scen)),
        "cal_s": (statistics.median(cals), len(cals)),
        "peak_rss_mb": (res["peak_rss_mb"], 1),
        "failed_frac": (res["failed"] / res["attempted"], res["attempted"]),
    }


def per_layer(res):
    """name -> (value, samples) for the traced run."""
    n = len(res["traced_wall_s"])
    out = {name: (value, n) for name, value in res["layers"].items()}
    traced = statistics.median(res["traced_wall_s"])
    out["trace.wall_s"] = (traced, n)
    out["trace.overhead_s"] = (traced - statistics.median(res["wall_s"]), n)
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "arago", "cli.py")):
        print("run from the root of an arago source checkout "
              "(src/arago not found)", file=sys.stderr)
        return 2
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    env = child_env(root)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work_dir = os.path.join(root, OUT_DIR, args.workload)
    os.makedirs(work_dir, exist_ok=True)

    inputs = make_inputs(args.workload, args.seed)
    setup = []
    if not args.trace:
        config_path = os.path.join(work_dir, "setup.cfg")
        with open(config_path, "w", encoding="utf-8") as fh:
            fh.write(inputs.config)
        setup = setup_times(config_path, env, deadline)
    out = run_child([sys.executable, os.path.join(HERE, "worker.py"),
                     "--workload", args.workload, "--seed", str(args.seed),
                     "--seconds", str(args.seconds),
                     "--trace", str(args.trace), "--work-dir", work_dir],
                    env, deadline)
    res = json.loads(out.splitlines()[-1])

    if args.trace:
        measured, wanted = per_layer(res), spec["per_layer"]
    else:
        measured = end_to_end(setup, res, inputs.scenarios)
        wanted = spec["end_to_end"]
    # a counter whose function no longer exists reads 0
    metrics = {m["name"]: {"value": measured.get(m["name"], (0, 0))[0],
                           "unit": m["unit"]} for m in wanted}
    correct = (res["failed"] == 0 and res["identical_artifacts"]
               and res.get("counts_repeat", True))

    facts = machine(env, root)
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "machine": facts, "correct": correct,
              "problems": res["problems"],
              "metrics": {k: {"value": v, "samples": n}
                          for k, (v, n) in measured.items()},
              "samples": {"setup_s": setup, "wall_s": res["wall_s"],
                          "scenario_s": res["scenario_s"],
                          "cal_s": res["cal_s"],
                          "scenario_cal_s": res["scenario_cal_s"],
                          "traced_wall_s": res.get("traced_wall_s", [])}}
    with open(os.path.join(root, OUT_DIR, f"{tag}.json"), "w",
              encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)

    print(f"# {tag}: " + ", ".join(f"{k}={v}" for k, v in facts.items()))
    for problem in res["problems"]:
        print(f"# problem: {problem}")
    units = {m["name"]: m["unit"] for m in wanted}
    if not args.trace:
        units.update({"wall_s": "s", "scenario_s.p50": "s", "cal_s": "s",
                      "failed_frac": "fraction"})
    for name, unit in units.items():
        value, n = measured.get(name, (0, 0))
        print(f"{name} = {value:.6g} {unit} (n={n})")
    print(json.dumps({"correct": correct, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
