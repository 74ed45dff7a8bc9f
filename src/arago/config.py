"""Flat key=value configuration grammar.

One assignment per line, dotted lowercase keys, `#` starts a comment, blank
lines ignored:

    poisson.R = 500e-9      # obstacle radius, m
    mode = poisson_ideal

Scenario files, shipped presets and the species data file all use this grammar,
and report rows (ConstraintReport) are written in it as
`<name>.value/.bound/.satisfied/.note` keys.
Kept deliberately dependency-free and bit-exact to specify: the canonical form
(sorted keys, single spaces, LF endings) round-trips through parse/serialize
unchanged.
"""

import math
import re
from dataclasses import dataclass

_KEY_RE = re.compile(r"^[A-Za-z0-9_]+(\.[A-Za-z0-9_]+)*$")


@dataclass(frozen=True)
class ConstraintReport:
    """One check of a report: computed value vs limiting bound."""

    name: str
    value: float
    bound: float
    satisfied: bool
    note: str = ""


class ConfigError(ValueError):
    """Malformed configuration text or invalid field value."""

    def __init__(self, message, line=None, column=None):
        loc = ""
        if line is not None:
            loc = f"line {line}"
            if column is not None:
                loc += f", column {column}"
            loc += ": "
        super().__init__(loc + message)
        self.line = line
        self.column = column


def parse_kv(text):
    """Parse config text into an insertion-ordered {key: value-string} dict."""
    if not isinstance(text, str):
        raise ConfigError("configuration must be text")
    items = {}
    saw_any = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        saw_any = True
        if "=" not in line:
            raise ConfigError("expected 'key = value'", lineno,
                              len(raw) - len(raw.lstrip()) + 1)
        key, value = line.split("=", 1)
        key = key.strip()
        value = value.strip()
        if not _KEY_RE.match(key):
            raise ConfigError(f"malformed key {key!r}", lineno, raw.find(key) + 1)
        if not value:
            raise ConfigError(f"empty value for key {key!r}", lineno,
                              raw.find("=") + 2)
        if key in items:
            raise ConfigError(f"duplicate key {key!r}", lineno)
        items[key] = value
    if not saw_any:
        raise ConfigError("configuration is empty")
    return items


def serialize_kv(items):
    """Canonical text form: sorted keys, `key = value`, LF line endings."""
    lines = [f"{k} = {items[k]}" for k in sorted(items)]
    return "\n".join(lines) + "\n"


def as_float(items, key, default=None):
    """Fetch a finite float-valued key, with a config-level error message."""
    if key not in items:
        if default is not None:
            return default
        raise ConfigError(f"missing required key {key!r}")
    try:
        value = float(items[key])
    except ValueError:
        raise ConfigError(f"key {key!r}: {items[key]!r} is not a number") from None
    if not math.isfinite(value):
        raise ConfigError(f"key {key!r}: {items[key]!r} is not finite")
    return value


def as_int(items, key, default=None):
    """Fetch an integer-valued key; a fractional value is an error, never
    truncated (241.0 is 241, 100.9 is refused)."""
    value = as_float(items, key, default)
    if value != int(value):
        raise ConfigError(f"key {key!r}: {items[key]!r} is not an integer")
    return int(value)
