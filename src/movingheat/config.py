"""Strict parsing of run configuration files.

Format: UTF-8 text, ``[section]`` headers, ``key = value`` lines, ``#``
comments.  Unknown sections or keys are hard errors; silent typos in
numerical configs are how irreproducible results happen.  Numbers must be
finite.  A section with a ``kind`` takes only the keys of that kind:

    [domain]  kind (required), T, and per kind
                  constant: a0 | linear, exponential: a0 slope
                  sinusoidal: a0 amp omega | table: table_path
    [noise]   kind = zero (default): m
                  moving_diagonal: gamma beta p m lipschitz_k
                  general_matrix: matrix_path lipschitz_k m
    [init]    kind = mode (default): mode amplitude
                  modes: amplitudes | parabola: scale
    [sim]     n scheme dt t_end seed n_paths
    [output]  grid_size snapshot_stride
"""

from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass
from functools import partial
from pathlib import Path

import numpy as np

from . import noise as noise_mod
from .domain import FAMILIES, make_domain
from .errors import ConfigError
from .integrator import ModeInitial, ModesInitial, ParabolaInitial, SimulationConfig

_REQUIRED = object()


def _float(text: str) -> float:
    value = float(text) if _is_number(text) else math.nan
    if not math.isfinite(value):
        raise ValueError("must be a finite number")
    return value


def _int(text: str) -> int:
    try:
        return int(text)  # exact at any size; floats hold integers only up to 2^53
    except ValueError:
        pass
    value = float(text) if _is_number(text) else math.nan  # forms like 1e3 or 16.0
    if not math.isfinite(value) or value != int(value):
        raise ValueError("must be an integer")
    return int(value)


def _floats(text: str) -> tuple:
    try:
        return tuple(_float(v) for v in text.split(","))
    except ValueError:
        raise ValueError("must be comma-separated finite numbers") from None


def _family(kind: str):
    """The [domain] builder of a closed-form family: its parameters and T."""
    return lambda get, base_dir: make_domain(
        kind, {k: get(k, _float) for k in sorted(FAMILIES[kind][0])}, get("T", _float)
    )


def _table_domain(get, base_dir: Path):
    ts, avals = _load_table(base_dir / get("table_path", str))
    return make_domain("table", {"t": ts, "a": avals}, get("T", _float))


def _general_matrix(get, n: int, base_dir: Path):
    path = base_dir / get("matrix_path", str)
    lip = get("lipschitz_k", _float)
    try:
        with warnings.catch_warnings():  # an empty file: general_matrix rejects the table
            warnings.simplefilter("ignore", UserWarning)
            table = np.loadtxt(path, delimiter=",", ndmin=2, encoding="utf-8-sig")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read matrix {path}: {exc}") from None
    model = noise_mod.general_matrix(table, lip)
    m = get("m", _int, model.m)
    if m != model.m:
        keys = sorted(_KINDS["noise"]["general_matrix"][0])
        raise ConfigError(f"[noise] kind=general_matrix takes keys {keys} with m equal to "
                          f"the matrix's {model.m} rows, got m = {m}")
    if table.shape[1] != n:
        raise ConfigError(f"[noise] matrix has {table.shape[1]} columns but [sim] n = {n}")
    return model


def _mode_initial(get, a0: float):
    mode = get("mode", _int, 1)
    if mode < 1:
        raise ConfigError(f"[init] mode must be >= 1, got {mode}")
    return ModeInitial(mode, get("amplitude", _float, 1.0), a0)


# section -> kind -> (keys of that kind, builder(get, *context)); ``get(key, conv,
# default)`` reads the section.  Context: base_dir for [domain], n and base_dir for
# [noise], a(0) for [init].
_KINDS = {
    "domain": {
        **{kind: (keys | {"T"}, _family(kind)) for kind, (keys, _, _) in FAMILIES.items()},
        "table": ({"table_path", "T"}, _table_domain),
    },
    "noise": {
        "zero": ({"m"}, lambda get, n, base_dir: noise_mod.zero_model(get("m", _int, n))),
        "moving_diagonal": (
            {"gamma", "beta", "p", "m", "lipschitz_k"},
            lambda get, n, base_dir: noise_mod.moving_diagonal(
                get("gamma", _float, 0.0), get("beta", _float, 0.0), get("p", _float, 1.0),
                get("m", _int, n), get("lipschitz_k", _float, None)),
        ),
        "general_matrix": ({"matrix_path", "lipschitz_k", "m"}, _general_matrix),
    },
    "init": {
        "mode": ({"mode", "amplitude"}, _mode_initial),
        "modes": ({"amplitudes"}, lambda get, a0: ModesInitial(get("amplitudes", _floats), a0)),
        "parabola": ({"scale"}, lambda get, a0: ParabolaInitial(a0, get("scale", _float, 1.0))),
    },
}

# [sim] and [output]: key -> (converter, default); t_end defaults to the horizon T
_DEFAULTS = {
    "sim": {"n": (_int, 16), "scheme": (str, "exponential_em"), "dt": (_float, 1e-3),
            "t_end": (_float, None), "seed": (_int, 0), "n_paths": (_int, 1)},
    "output": {"grid_size": (_int, 129), "snapshot_stride": (_int, 1)},
}

_SCHEMA = {
    **{name: {"kind"}.union(*(keys for keys, _ in kinds.values()))
       for name, kinds in _KINDS.items()},
    **{name: set(keys) for name, keys in _DEFAULTS.items()},
}


@dataclass(frozen=True)
class RunSetup:
    """Everything the CLI needs: validated config and initial data."""

    config: SimulationConfig
    u0: object
    text: str  # canonical resolved config, reproduces this setup when re-parsed


def parse_run(path) -> RunSetup:
    """Parse and validate a config file; see module docstring for the schema."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8-sig")
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    return parse_run_text(text, base_dir=path.parent)


def parse_run_text(text: str, base_dir: Path | None = None) -> RunSetup:
    base_dir = Path(base_dir) if base_dir is not None else Path.cwd()
    sections = _split_sections(text)
    _, domain = _kind(sections, "domain", _REQUIRED, base_dir)
    sim = _plain(sections, "sim", t_end=domain.horizon)
    noise_kind, model = _kind(sections, "noise", "zero", sim["n"], base_dir)
    out = _plain(sections, "output")
    config = SimulationConfig(domain=domain, model=model, **sim, **out)
    init_kind, u0 = _kind(sections, "init", "mode", float(domain.a_at(0.0)))
    canonical = _canonical_text(sections, defaults={
        "sim": sim, "noise": {"kind": noise_kind}, "output": out, "init": {"kind": init_kind},
    })
    return RunSetup(config, u0, canonical)


def _kind(sections, name: str, default, *context):
    """(kind, built value) of a section that selects a kind in ``_KINDS``.

    Keys that belong to another kind of the section are rejected; the builder
    reads values through ``_get`` bound to the section.
    """
    section = sections.get(name, {})
    kinds = _KINDS[name]
    kind = _get(section, name, "kind", str, default)
    if kind not in kinds:
        raise ConfigError(f"[{name}] kind must be one of {sorted(kinds)}, got {kind!r}")
    keys, build = kinds[kind]
    extra = set(section) - keys - {"kind"}
    if extra:
        raise ConfigError(f"[{name}] kind={kind} takes keys {sorted(keys)}, not {sorted(extra)}")
    try:
        return kind, build(partial(_get, section, name), *context)
    except ValueError as exc:
        raise ConfigError(f"[{name}] {exc}") from None


def _plain(sections, name: str, **defaults) -> dict:
    """Values of a section without kinds, defaults from ``_DEFAULTS`` or ``defaults``."""
    section = sections.get(name, {})
    return {key: _get(section, name, key, conv, defaults.get(key, default))
            for key, (conv, default) in _DEFAULTS[name].items()}


def _get(section: dict, name: str, key: str, conv, default=_REQUIRED):
    """``conv`` of the key's value, ``default`` if absent; no default means required."""
    if key not in section:
        if default is _REQUIRED:
            raise ConfigError(f"missing required key {key!r} in [{name}]")
        return default
    try:
        return conv(section[key])
    except ValueError as exc:
        raise ConfigError(f"[{name}] {key} {exc}, got {section[key]!r}") from None


def _split_sections(text: str) -> dict[str, dict[str, str]]:
    sections: dict[str, dict[str, str]] = {}
    current_name = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            current_name = line[1:-1].strip()
            if current_name not in _SCHEMA:
                raise ConfigError(
                    f"line {lineno}: unknown section [{current_name}]; expected one of "
                    f"{sorted(_SCHEMA)}"
                )
            sections.setdefault(current_name, {})
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        if current_name is None:
            raise ConfigError(f"line {lineno}: key outside any [section]")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _SCHEMA[current_name]:
            raise ConfigError(
                f"line {lineno}: unknown key {key!r} in [{current_name}]; "
                f"allowed: {sorted(_SCHEMA[current_name])}"
            )
        if key in sections[current_name]:
            raise ConfigError(
                f"line {lineno}: duplicate key {key!r} in [{current_name}]"
            )
        sections[current_name][key] = value
    return sections


def _load_table(path: Path):
    try:
        with open(path, encoding="utf-8-sig", newline="") as fh:
            rows = [row for row in csv.reader(fh) if row]  # skips blank lines, a first one too
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read table {path}: {exc}") from None
    if rows and not _is_number(rows[0][0]):
        rows = rows[1:]  # header line
    try:
        data = np.array([[float(c) for c in row[:2]] for row in rows])
    except (ValueError, IndexError):
        raise ConfigError(f"table {path} must hold numeric t,a rows")
    if data.ndim != 2 or data.shape[1] != 2:
        raise ConfigError(f"table {path} must hold numeric t,a rows")
    return data[:, 0], data[:, 1]


def _canonical_text(sections, defaults) -> str:
    merged: dict[str, dict[str, str]] = {}
    for name in _SCHEMA:
        vals = dict(defaults.get(name, {}))
        vals.update(sections.get(name, {}))
        if vals:
            merged[name] = vals
    lines = []
    for name, vals in merged.items():
        lines.append(f"[{name}]")
        for key, val in vals.items():
            lines.append(f"{key} = {val}")
        lines.append("")
    return "\n".join(lines)


def _is_number(s: str) -> bool:
    try:
        float(s)
        return True
    except ValueError:
        return False
