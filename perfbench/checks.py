"""Output checks for one pass of a workload.

Every scenario is checked for invariants: profiles are finite and
non-negative on a strictly increasing grid, and every report parses.
Every scenario a seed can select has a recorded reference (reference.json,
recorded from the unmodified package by record_reference.py), and its
outputs must agree with it:

- near-field profiles and reports within |x - x_ref| <= 1e-6 + 1e-3 |x_ref|
  (profiles are intensities in units of the obstacle-free beam). Replacing
  the sphere's ODE-shot capture radius by the exact effective-potential
  criterion moves eta by at most 8e-6 relative over the sphere-sweep
  velocities and these outputs by at most 3.2e-5 relative (the shadow L1
  distance; profiles by 1.5e-5), so exact rewrites of the capture radius or
  the eikonal phase pass with a margin of 30, while a lost term or a wrong
  kernel does not;
- far-field report values within 1e-6 relative: they are closed forms
  printed with 9 significant digits. Satisfied flags must match exactly.
"""

import hashlib
import math
import os

NEAR_FIELD_TOL = (1e-3, 1e-6)   # (relative, absolute)
TOLERANCE = {"farfield_report.kv": (1e-6, 0.0)}

NEAR_FIELD_FILES = ("visibility.kv", "profile_quantum.csv",
                    "profile_classical.csv", "distinguishability.kv")
FAR_FIELD_FILES = ("farfield_report.txt", "farfield_report.kv")
PROFILE_STRIDE = 10  # reference keeps every 10th profile node


class CheckError(Exception):
    """An output that is missing, malformed or wrong."""


def scenario_files(inputs):
    return FAR_FIELD_FILES if "mode = farfield" in inputs.config \
        else NEAR_FIELD_FILES


def scenario_dirs(inputs, out_dir):
    """(reference key, directory) of each scenario of a pass."""
    if not inputs.sweep_key:
        return [("", out_dir)]
    slug = inputs.sweep_key.replace(".", "_")
    return [(value, os.path.join(out_dir, f"{slug}_{i:02d}"))
            for i, value in enumerate(inputs.sweep_values)]


def _number(text):
    try:
        return float(text)
    except ValueError:
        raise CheckError(f"not a number: {text!r}") from None


def parse_kv(text):
    rows = {}
    for line in text.splitlines():
        key, sep, value = line.partition(" = ")
        if not sep or not key:
            raise CheckError(f"malformed report line {line!r}")
        rows[key] = value
    if not rows:
        raise CheckError("empty report")
    return rows


def parse_profile(text):
    lines = text.splitlines()
    if len(lines) < 10 or not lines[0].startswith("#") or lines[1] != "u,w":
        raise CheckError("profile header missing or too few rows")
    rows = []
    for line in lines[2:]:
        u, sep, w = line.partition(",")
        if not sep:
            raise CheckError(f"malformed profile row {line!r}")
        rows.append((_number(u), _number(w)))
    for (u0, _), (u1, _) in zip(rows, rows[1:]):
        if not u1 > u0:
            raise CheckError("profile grid not strictly increasing")
    for u, w in rows:
        if not (math.isfinite(u) and math.isfinite(w) and w >= 0.0):
            raise CheckError(f"profile value out of range at u={u}: {w}")
    return rows


def _check_report(rows):
    for key, value in rows.items():
        if key.endswith((".value", ".bound")) or "." not in key:
            _number(value)
        elif key.endswith(".satisfied") and value not in ("true", "false"):
            raise CheckError(f"{key} is {value!r}")


def parse_report_txt(text):
    """The plain-text report: a title, a rule, then one verdict per check."""
    lines = text.splitlines()
    checks = [line for line in lines[2:] if line.startswith("[")]
    if len(lines) < 3 or set(lines[1]) != {"-"} or not checks:
        raise CheckError("report text has no title or no checks")
    for line in checks:
        verdict, _, rest = line.partition("] ")
        _, _, numbers = rest.partition(": value ")
        value, sep, bound = numbers.partition(" vs bound ")
        if verdict not in ("[ok  ", "[FAIL") or not sep:
            raise CheckError(f"malformed report line {line!r}")
        _number(value), _number(bound)


def extract(name, text):
    """The checked content of one artifact, in reference form."""
    if name.endswith(".csv"):
        return parse_profile(text)[::PROFILE_STRIDE]
    if name.endswith(".txt"):
        return parse_report_txt(text)
    rows = parse_kv(text)
    _check_report(rows)
    return {k: v for k, v in rows.items() if not k.endswith(".note")}


def _close(a, b, rtol, atol=0.0):
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return a == b or abs(a - b) <= atol + rtol * abs(b)


def compare(name, got, ref):
    """Raise CheckError where `got` departs from the reference `ref`."""
    rtol, atol = TOLERANCE.get(name, NEAR_FIELD_TOL)
    if name.endswith(".csv"):
        if len(got) != len(ref):
            raise CheckError(f"{name}: {len(got)} sampled rows, "
                             f"reference has {len(ref)}")
        for (u, w), (u_ref, w_ref) in zip(got, ref):
            if not (_close(u, u_ref, 1e-12) and _close(w, w_ref, rtol,
                                                       atol)):
                raise CheckError(f"{name}: w({u:.6g}) = {w:.9g}, "
                                 f"reference {w_ref:.9g}")
        return
    for key, want in ref.items():
        if key not in got:
            raise CheckError(f"{name}: row {key} missing")
        have = got[key]
        if key.endswith(".satisfied"):
            ok = have == want
        else:
            ok = _close(_number(have), _number(want), rtol, atol)
        if not ok:
            raise CheckError(f"{name}: {key} = {have}, reference {want}")


def check_pass(inputs, out_dir, reference):
    """Check every scenario of a pass.

    Returns (failures, digest): failures maps reference key to the first
    problem found; digest is a sha256 over the checked artifacts and the
    summary, for comparing passes byte for byte.
    """
    digest = hashlib.sha256()
    failures = {}
    files = scenario_files(inputs)
    dirs = scenario_dirs(inputs, out_dir)
    for key, directory in dirs:
        try:
            for name in files:
                path = os.path.join(directory, name)
                try:
                    with open(path, "rb") as fh:
                        raw = fh.read()
                except OSError as exc:
                    raise CheckError(f"{name}: {exc.strerror}") from None
                digest.update(name.encode() + b"\0" + raw)
                got = extract(name, raw.decode("utf-8"))
                ref = reference.get(key, {}).get(name)
                if ref is not None:
                    compare(name, got, ref)
        except CheckError as exc:
            failures[key] = str(exc)
    if inputs.sweep_key:
        try:
            with open(os.path.join(out_dir, "summary.csv"), "rb") as fh:
                raw = fh.read()
            digest.update(raw)
            rows = raw.decode("utf-8").splitlines()[2:]
            values = tuple(r.split(",", 1)[0] for r in rows)
            if values != inputs.sweep_values:
                raise CheckError("summary.csv rows do not match the sweep")
        except (OSError, CheckError) as exc:
            failures.setdefault("summary.csv", str(exc))
    return failures, digest.hexdigest()
