"""Record reference.json from the package in ./src.

    python3 perfbench/record_reference.py

Run from the root of a checkout of the code whose outputs are to serve as
the reference. Runs every scenario a seed can select: all sphere-sweep
velocities, the disc-velocity scenario and the far-field anchor masses.
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.getcwd(), "src"))
sys.path.insert(0, HERE)

import arago.cli  # noqa: E402
from checks import (extract, scenario_dirs, scenario_files,  # noqa: E402
                    CheckError)
from workloads import (FARFIELD_ANCHORS, SPHERE_VELOCITIES,  # noqa: E402
                       make_inputs, Inputs)


def record(inputs, out_dir):
    code = arago.cli.main(inputs.argv(os.path.join(out_dir, "scenario.cfg"),
                                      out_dir))
    if code != 0:
        raise SystemExit(f"{inputs.workload}: simulate returned {code}")
    ref = {}
    for key, directory in scenario_dirs(inputs, out_dir):
        ref[key] = {}
        for name in scenario_files(inputs):
            with open(os.path.join(directory, name), encoding="utf-8") as fh:
                got = extract(name, fh.read())
            if got is not None:
                ref[key][name] = got
    return ref


def main():
    full = {
        "sphere-sweep": SPHERE_VELOCITIES,
        "disc-velocity": (),
        "farfield-sweep": FARFIELD_ANCHORS,
    }
    reference = {}
    for workload, values in full.items():
        base = make_inputs(workload, 0)
        inputs = Inputs(workload, base.config, base.sweep_key, values)
        out_dir = os.path.join(os.getcwd(), ".perfbench_out", "reference",
                               workload)
        os.makedirs(out_dir, exist_ok=True)
        with open(os.path.join(out_dir, "scenario.cfg"), "w",
                  encoding="utf-8") as fh:
            fh.write(inputs.config)
        try:
            reference[workload] = record(inputs, out_dir)
        except CheckError as exc:
            raise SystemExit(f"{workload}: {exc}")
        print(workload, len(reference[workload]), "scenarios", flush=True)
    with open(os.path.join(HERE, "reference.json"), "w",
              encoding="utf-8") as fh:
        json.dump(reference, fh, indent=0, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
