"""One workload run in its own process; started by run.py.

Runs checked and timed passes of `simulate` for the given number of
seconds, and prints one JSON object with the raw samples.
Untraced passes time each `run_scenario` call, and a fixed calibration
kernel is timed just before and after each of them: the mean of the two
measures the host's speed during the pass, which run.py divides out.
With --trace 1, untraced and traced passes alternate; the traced passes
record spans of every layer and must leave byte-identical artifacts.
"""

import argparse
import csv
import json
import os
import resource
import statistics
import sys
import time

import numpy as np

from checks import check_pass
from spans import Patches, Span, Tracer, layer_metrics
from workloads import make_inputs

HERE = os.path.dirname(os.path.abspath(__file__))
MIN_PASSES = 2
CAL_REPS = 5
_CAL_X = np.linspace(0.0, 20.0, 20000)


def calibration_s():
    """Median time of CAL_REPS runs of a fixed kernel that mixes interpreter
    and numpy work, as the workloads do. It uses nothing of arago, so a
    change to the program does not move it; a slower or busier host does.
    The median drops a run that the scheduler interrupted."""
    times = []
    for _ in range(CAL_REPS):
        start = time.perf_counter()
        total = 0
        for i in range(100000):
            total += i * i
        for _ in range(20):
            total += float(np.cos(_CAL_X).sum())
        times.append(time.perf_counter() - start)
    return statistics.median(times)


class ScenarioTimer:
    """Times each `arago.cli.run_scenario` call: the one hook in untraced
    passes. Without that function there are no samples."""

    def __init__(self, cli):
        self.samples = []
        self._cli = cli
        self._patches = Patches()

    def __enter__(self):
        orig = getattr(self._cli, "run_scenario", None)
        if orig is not None:
            def timed(*args, **kwargs):
                start = time.perf_counter()
                try:
                    return orig(*args, **kwargs)
                finally:
                    self.samples.append(time.perf_counter() - start)
            self._patches.set(self._cli, "run_scenario", timed)
        return self

    def __exit__(self, *exc):
        self._patches.restore()


class Runner:
    """Runs and checks passes of one workload, counting what failed."""

    def __init__(self, inputs, work_dir, reference):
        import arago.cli
        self.cli = arago.cli
        self.inputs = inputs
        self.reference = reference.get(inputs.workload, {})
        self.out_dir = os.path.join(work_dir, "out")
        self.config_path = os.path.join(work_dir, "scenario.cfg")
        os.makedirs(work_dir, exist_ok=True)
        with open(self.config_path, "w", encoding="utf-8") as fh:
            fh.write(inputs.config)
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.digests = set()

    def one_pass(self):
        """Run and check one pass; returns its wall time in seconds."""
        argv = self.inputs.argv(self.config_path, self.out_dir)
        start = time.perf_counter()
        try:
            code = self.cli.main(argv)
        except Exception as exc:  # counted as failed scenarios, not fatal
            code = f"{type(exc).__name__}: {exc}"
        wall = time.perf_counter() - start
        n = self.inputs.scenarios
        self.attempted += n
        failures, digest = check_pass(self.inputs, self.out_dir,
                                      self.reference)
        if code != 0:
            failures.setdefault("exit", f"simulate returned {code}")
        if "exit" in failures or "summary.csv" in failures:
            self.failed += n
        else:
            self.failed += len(failures)
        self.problems.extend(f"{k}: {v}" for k, v in failures.items())
        self.digests.add(digest)
        return wall


def run(inputs, seconds, trace, work_dir, reference):
    runner = Runner(inputs, work_dir, reference)
    walls, cals, scenario_cals = [], [], []
    traced_walls, layer_samples = [], []
    first_spans = None
    tracer = Tracer() if trace else None
    timer = ScenarioTimer(runner.cli)
    start = time.perf_counter()
    step = 0.0  # length of the last loop step; stop if half of one won't fit
    while (time.perf_counter() - start + step / 2 < seconds
           or len(walls) < MIN_PASSES):
        began = time.perf_counter()
        before = calibration_s()
        with timer:
            walls.append(runner.one_pass())
        # the host's speed during the pass, for this pass and its scenarios
        cals.append((before + calibration_s()) / 2)
        scenario_cals += [cals[-1]] * (len(timer.samples)
                                       - len(scenario_cals))
        if tracer is not None:
            tracer.run = len(traced_walls)
            tracer.install()
            try:
                traced_walls.append(runner.one_pass())
            finally:
                tracer.uninstall()
            spans, counts = tracer.take()
            layer_samples.append(layer_metrics(spans, counts))
            first_spans = first_spans or spans
        step = time.perf_counter() - began

    result = {
        "attempted": runner.attempted,
        "failed": runner.failed,
        "problems": runner.problems[:20],
        "identical_artifacts": len(runner.digests) == 1,
        "wall_s": walls,
        "scenario_s": timer.samples,
        "cal_s": cals,
        "scenario_cal_s": scenario_cals,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
    }
    if tracer is not None:
        result["traced_wall_s"] = traced_walls
        result["layers"] = summarize_layers(layer_samples)
        result["counts_repeat"] = all(
            _counts(s) == _counts(layer_samples[0]) for s in layer_samples)
        write_spans(first_spans, os.path.join(work_dir, "spans.csv"))
    return result


def _counts(sample):
    return {k: v for k, v in sample.items()
            if not (k.endswith(".s") or k.endswith("_s"))}


def summarize_layers(samples):
    """Medians of times over traced passes; counts of the first pass."""
    out = dict(_counts(samples[0]))
    keys = {k for s in samples for k in s} - set(out)
    for key in keys:
        out[key] = statistics.median(s.get(key, 0.0) for s in samples)
    return out


def write_spans(spans, path):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        out = csv.writer(fh)
        out.writerow(Span._fields)
        out.writerows(spans)


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--work-dir", required=True)
    args = parser.parse_args(argv)
    with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as fh:
        reference = json.load(fh)
    inputs = make_inputs(args.workload, args.seed)
    result = run(inputs, args.seconds, args.trace, args.work_dir, reference)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
