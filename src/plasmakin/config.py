"""Scenario configuration, run manifests and deterministic artifact output.

Scenario files are flat `key = value` documents with `#` comments and an
`extends = <relative path>` mechanism for sweep variants.  Unknown keys and
values of the wrong type (non-finite, non-integer, non-positive, a
`grid-n` that is not a power of two, a `lattice-n` below 3, a 3-vector
key such as `drift` or `ray-x` without exactly three numbers, a
`test-sigmas` that is not three positive numbers, a `slope-window` that
is not two increasing positive numbers, a `k-max-list` entry that is
not positive, a zero wavenumber `k`, `k-check` or `k-values` entry, or a
zero `w`) are rejected with line/column diagnostics.  So is a
distribution or potential parameter that the chosen kind does not read
(`drift` with `distribution = exponential`), also when it comes through
`extends`; a distribution parameter its constructor refuses raises
ConfigError naming its key.  A grid with only one of `grid-u-max` and
`grid-n` set takes the other from the distribution's default grid.
CSV bodies are byte-stable: 17 significant digits, scientific notation,
LF endings, fixed column order, and `#`-prefixed metadata lines that
never include wall-clock data.
"""

from __future__ import annotations

import json
import os
import tempfile
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path

import numpy as np

from . import __version__
from .errors import CompareError, ConfigError, InputError

_COMMON_KEYS = {
    "scenario",
    "extends",
    "distribution",
    "drift",
    "temperature",
    "bump-separation",
    "bump-sigma",
    "gamma",
    "modulation",
    "mixture-weights",
    "mixture-sigmas",
    "potential",
    "potential-amplitude",
    "potential-width",
    "grid-u-max",
    "grid-n",
}

_SCENARIO_KEYS = {
    "penrose": set(),
    "dielectric": {"k-values"},
    "equilibrium": {"k-check", "ray-x", "ray-v1", "ray-v2", "ray-tau-max", "slopes",
                    "slope-window", "slope-v"},
    "cloud": {"sigma", "v0", "r-min", "r-max", "r-count"},
    "evolve": {"k", "t-max", "dt", "amplitude", "pair", "test-sigmas"},
    "kernel": {"k-max-list", "lattice-n", "half-width", "w", "v"},
}

# per kind key: the kind a scenario gets without it, and the parameters each kind reads
_KIND_PARAMETERS = {
    "distribution": ("maxwellian", {
        "maxwellian": {"drift", "temperature"},
        "two-bump": {"bump-separation", "bump-sigma"},
        "two-temperature": {"mixture-weights", "mixture-sigmas"},
        "exponential": {"gamma", "modulation"},
    }),
    "potential": ("coulomb", {
        "coulomb": set(),
        "gaussian": {"potential-amplitude", "potential-width"},
        "zero": set(),
    }),
}

_VECTOR_KEYS = {
    "drift", "v0", "ray-x", "ray-v1", "ray-v2", "w", "v",
    "mixture-weights", "mixture-sigmas", "k-values", "k-max-list",
    "test-sigmas", "slope-window",
}
_THREE_VECTOR_KEYS = {"drift", "v0", "ray-x", "ray-v1", "ray-v2", "w", "v"}
_STRING_KEYS = {"scenario", "extends", "distribution", "potential"}
_BOOL_KEYS = {"slopes", "pair"}
_INT_KEYS = {"grid-n", "lattice-n", "r-count", "gamma"}
_WAVENUMBER_KEYS = {"k", "k-check", "k-values"}  # ε is undefined at k = 0
_POSITIVE_KEYS = {
    "temperature", "grid-u-max", "grid-n", "lattice-n", "r-count", "dt", "t-max",
    "half-width", "sigma", "potential-amplitude", "potential-width", "r-min", "r-max",
}


@dataclass
class Scenario:
    kind: str
    values: dict
    source: str = "<memory>"

    def get(self, key, default=None):
        return self.values.get(key, default)


def _parse_value(key, raw, line_no, path):
    def reject(expected):
        raise ConfigError(f"key {key!r}: expected {expected}, got {raw!r}", line_no, 1, path)

    if key in _STRING_KEYS:
        return raw
    if key in _BOOL_KEYS:
        if raw.lower() in ("true", "yes", "1"):
            return True
        if raw.lower() in ("false", "no", "0"):
            return False
        reject("boolean")
    try:
        nums = [float(p) for p in raw.split()]
    except ValueError:
        reject("number(s)")
    if not np.all(np.isfinite(nums)):
        reject("finite number(s)")
    if key == "test-sigmas" and (len(nums) != 3 or min(nums) <= 0):
        reject("three positive numbers")
    if key in _THREE_VECTOR_KEYS and len(nums) != 3:
        reject("three numbers (a 3-vector)")
    if key == "slope-window" and (len(nums) != 2 or not 0 < nums[0] < nums[1]):
        reject("two increasing positive numbers")
    if key == "k-max-list" and min(nums) <= 0:
        reject("positive numbers")
    if key in _WAVENUMBER_KEYS and 0.0 in nums:
        reject("nonzero number(s)")
    if key == "w" and not any(nums):
        reject("a nonzero 3-vector")
    if key in _VECTOR_KEYS:
        return nums
    if len(nums) != 1:
        reject("a scalar")
    x = nums[0]
    if key in _INT_KEYS and not x.is_integer():
        reject("an integer")
    if key in _POSITIVE_KEYS and x <= 0:
        reject("a positive number")
    if key == "grid-n" and (x < 16 or int(x) & (int(x) - 1)):
        reject("a power of two >= 16")
    if key == "lattice-n" and x < 3:
        reject("an integer >= 3")
    return x


def _parse_file(path: Path) -> dict:
    entries = {}
    text = path.read_text()
    for line_no, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            col = line.index(stripped[0]) + 1
            raise ConfigError("expected 'key = value'", line_no, col, str(path))
        key, raw = (s.strip() for s in stripped.split("=", 1))
        if not key or not raw:
            raise ConfigError("empty key or value", line_no, 1, str(path))
        entries[key] = (raw, line_no)
    return entries


def load_scenario(path) -> Scenario:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"no such config file: {path}")
    entries = _parse_file(path)
    if "extends" in entries:
        base_rel = entries.pop("extends")[0]
        base = load_scenario(path.parent / base_rel)
        merged = dict(base.values)
    else:
        merged = {}
    if "scenario" not in entries and "scenario" not in merged:
        raise ConfigError("missing required key 'scenario'", 1, 1, str(path))
    kind = entries["scenario"][0] if "scenario" in entries else merged["scenario"]
    if kind not in _SCENARIO_KEYS:
        line = entries["scenario"][1] if "scenario" in entries else 1
        raise ConfigError(f"unknown scenario kind {kind!r}", line, 1, str(path))
    allowed = _COMMON_KEYS | _SCENARIO_KEYS[kind]
    for key, (raw, line_no) in entries.items():
        if key not in allowed:
            raise ConfigError(f"unknown key {key!r} for scenario {kind!r}", line_no, 1, str(path))
    for key, (raw, line_no) in entries.items():
        merged[key] = _parse_value(key, raw, line_no, str(path))
    for kind_key, (default, reads) in _KIND_PARAMETERS.items():
        chosen = merged.get(kind_key, default)
        if chosen not in reads:
            continue  # `build_distribution` / `build_potential` refuse the kind
        for key in sorted(set().union(*reads.values()) - reads[chosen]):
            if key in merged:
                # the key's line, or the kind's if the key came through `extends`
                line = (entries.get(key) or entries.get(kind_key) or (None,))[-1]
                raise ConfigError(f"key {key!r} is not read by {kind_key} {chosen!r}",
                                  line, 1 if line else None, str(path))
    return Scenario(kind=kind, values=merged, source=str(path))


def build_distribution(scn: Scenario):
    """The scenario's distribution; a parameter its constructor refuses
    raises ConfigError naming the key, found by the word the constructor's
    InputError uses for that parameter."""
    from .distributions import BumpMixture, ExponentialFamily, Maxwellian

    kind = scn.get("distribution", "maxwellian")
    if kind == "maxwellian":
        keys = {"temperature": "temperature"}
        make = partial(Maxwellian, drift=scn.get("drift", [0.0, 0.0, 0.0]),
                       temperature=scn.get("temperature", 1.0))
    elif kind == "two-bump":
        sep = scn.get("bump-separation", 4.0)
        sig = scn.get("bump-sigma", 1.0)
        keys = {"sigma": "bump-sigma"}
        make = partial(BumpMixture, [(0.5, (0.0, 0.0, sep), sig), (0.5, (0.0, 0.0, -sep), sig)])
    elif kind == "two-temperature":
        w = scn.get("mixture-weights", [0.85, 0.15])
        s = scn.get("mixture-sigmas", [1.0, 1.3])
        if len(w) != len(s):
            raise ConfigError("mixture-weights and mixture-sigmas lengths differ")
        keys = {"weight": "mixture-weights", "sigma": "mixture-sigmas"}
        make = partial(BumpMixture, [(wi, (0.0, 0.0, 0.0), si) for wi, si in zip(w, s)])
    elif kind == "exponential":
        keys = {"gamma": "gamma", "modulation": "modulation"}
        make = partial(ExponentialFamily, gamma=int(scn.get("gamma", 1)),
                       modulation=scn.get("modulation", 0.0))
    else:
        raise ConfigError(f"unknown distribution kind {kind!r}")
    try:
        return make()
    except InputError as exc:
        named = [key for word, key in keys.items() if word in str(exc)] or list(keys.values())
        raise ConfigError(f"key {' / '.join(map(repr, named))}: {exc}") from exc


def build_potential(scn: Scenario):
    from .potentials import CoulombPotential, gaussian_soft, zero_potential

    kind = scn.get("potential", "coulomb")
    if kind == "coulomb":
        return CoulombPotential()
    if kind == "gaussian":
        return gaussian_soft(
            amplitude=scn.get("potential-amplitude", 1.0),
            width=scn.get("potential-width", 1.0),
        )
    if kind == "zero":
        return zero_potential()
    raise ConfigError(f"unknown potential kind {kind!r}")


def build_grid(scn: Scenario, distribution):
    """The scenario's u-grid, None when it sets neither grid key; an unset key
    is the one of `default_grid(distribution)`."""
    from .dielectric import default_grid
    from .transforms import UGrid

    u_max = scn.get("grid-u-max")
    n = scn.get("grid-n")
    if u_max is None and n is None:
        return None
    default = default_grid(distribution)
    return UGrid(u_max or default.u_max, int(n or default.n))


# ---------------------------------------------------------------------------
# manifests and artifact output
# ---------------------------------------------------------------------------


@dataclass
class RunManifest:
    scenario: dict
    checks: list = field(default_factory=list)
    diagnostics: dict = field(default_factory=dict)
    version: str = ""
    wall_clock_s: float = 0.0

    def add_check(self, name, passed, value=None, tolerance=None):
        entry = {"name": name, "passed": bool(passed)}
        if value is not None:
            entry["value"] = float(value)
        if tolerance is not None:
            entry["tolerance"] = float(tolerance)
        self.checks.append(entry)

    def all_passed(self) -> bool:
        return all(c["passed"] for c in self.checks)

    def to_dict(self):
        return {
            "scenario": self.scenario,
            "checks": self.checks,
            "diagnostics": self.diagnostics,
            "version": self.version or __version__,
            "wall_clock_s": self.wall_clock_s,
        }

    @classmethod
    def from_dict(cls, d):
        return cls(
            scenario=d["scenario"],
            checks=d["checks"],
            diagnostics=d["diagnostics"],
            version=d.get("version", ""),
            wall_clock_s=d.get("wall_clock_s", 0.0),
        )


def _atomic_write(path: Path, data: bytes):
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=".tmp-", suffix=path.suffix)
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def format_float(x) -> str:
    return f"{float(x):.17e}"


def write_csv(path, columns: dict, metadata: dict | None = None):
    """Deterministic CSV: '#' metadata lines, column header, 17-digit floats."""
    path = Path(path)
    lines = []
    for key in sorted((metadata or {}).keys()):
        lines.append(f"# {key} = {(metadata or {})[key]}")
    names = list(columns.keys())
    arrays = [np.atleast_1d(np.asarray(columns[n])) for n in names]
    n_rows = len(arrays[0])
    lines.append(",".join(names))
    for i in range(n_rows):
        lines.append(",".join(format_float(a[i]) for a in arrays))
    _atomic_write(path, ("\n".join(lines) + "\n").encode())


def write_manifest(path, manifest: RunManifest):
    payload = json.dumps(manifest.to_dict(), indent=2, sort_keys=True) + "\n"
    _atomic_write(Path(path), payload.encode())


def read_manifest(path) -> RunManifest:
    with open(path) as fh:
        return RunManifest.from_dict(json.load(fh))


def compare_manifests(a: RunManifest, b: RunManifest, tolerance=1e-9):
    """Numeric diff of two manifests of the same scenario shape."""
    if a.scenario.get("scenario") != b.scenario.get("scenario"):
        raise CompareError("scenario kinds differ")
    if a.scenario.get("distribution") != b.scenario.get("distribution"):
        raise CompareError("distribution kinds differ")

    diffs = {}

    def walk(pa, pb, prefix):
        if isinstance(pa, dict) and isinstance(pb, dict):
            if set(pa) != set(pb):
                raise CompareError(f"key sets differ under {prefix or '<root>'}")
            for key in sorted(pa):
                walk(pa[key], pb[key], f"{prefix}.{key}" if prefix else key)
        elif isinstance(pa, list) and isinstance(pb, list):
            if len(pa) != len(pb):
                raise CompareError(f"list lengths differ under {prefix}")
            for i, (xa, xb) in enumerate(zip(pa, pb)):
                walk(xa, xb, f"{prefix}[{i}]")
        elif isinstance(pa, bool) or isinstance(pb, bool):
            if pa != pb:
                diffs[prefix] = {"a": pa, "b": pb, "rel": 1.0}
        elif isinstance(pa, (int, float)) and isinstance(pb, (int, float)):
            scale = max(abs(pa), abs(pb), 1e-300)
            rel = abs(pa - pb) / scale
            if rel > tolerance:
                diffs[prefix] = {"a": pa, "b": pb, "rel": rel}
        else:
            if pa != pb:
                diffs[prefix] = {"a": str(pa), "b": str(pb), "rel": 1.0}

    skip = {"wall_clock_s"}
    da, db = a.to_dict(), b.to_dict()
    for key in sorted(set(da) - skip):
        walk(da[key], db[key], key)
    return diffs
