"""Strict parsing of run configuration files.

Format: UTF-8 text, ``[section]`` headers, ``key = value`` lines, ``#``
comments.  Unknown sections or keys are hard errors; silent typos in
numerical configs are how irreproducible results happen.

Sections and keys:

    [domain]  kind a0 slope amp omega T table_path
    [noise]   kind gamma beta p m lipschitz_k matrix_path
    [init]    kind mode amplitude amplitudes scale
    [sim]     n scheme dt t_end seed n_paths
    [output]  grid_size snapshot_stride
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import noise as noise_mod
from .domain import FAMILIES, make_domain
from .errors import ConfigError
from .integrator import ModeInitial, ModesInitial, ParabolaInitial, SimulationConfig

_SCHEMA = {
    "domain": {"kind", "a0", "slope", "amp", "omega", "T", "table_path"},
    "noise": {"kind", "gamma", "beta", "p", "m", "lipschitz_k", "matrix_path"},
    "init": {"kind", "mode", "amplitude", "amplitudes", "scale"},
    "sim": {"n", "scheme", "dt", "t_end", "seed", "n_paths"},
    "output": {"grid_size", "snapshot_stride"},
}


@dataclass(frozen=True)
class RunSetup:
    """Everything the CLI needs: validated config and initial data."""

    config: SimulationConfig
    u0: object
    text: str  # canonical resolved config, reproduces this setup when re-parsed


def parse_config(path) -> SimulationConfig:
    """Parse and validate a config file; see module docstring for the schema."""
    return parse_run(path).config


def parse_run(path) -> RunSetup:
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    return parse_run_text(text, base_dir=path.parent)


def parse_run_text(text: str, base_dir: Path | None = None) -> RunSetup:
    base_dir = Path(base_dir) if base_dir is not None else Path.cwd()
    sections = _split_sections(text)

    dom = sections.get("domain", {})
    kind = _require(dom, "kind", "domain")
    if kind not in FAMILIES:
        raise ConfigError(f"[domain] kind must be one of {sorted(FAMILIES)}, got {kind!r}")
    horizon = _get_float(dom, "T", "domain", required=True)
    params_present = set(dom) - {"kind", "T"}
    # a table domain reads its knots from the file named by table_path
    expected = {"table_path"} if kind == "table" else FAMILIES[kind][0]
    if params_present != expected:
        raise ConfigError(
            f"[domain] kind={kind} takes keys {sorted(expected)}, got {sorted(params_present)}"
        )
    if kind == "table":
        ts, avals = _load_table(base_dir / dom["table_path"])
        params = {"t": ts, "a": avals}
    else:
        params = {k: _get_float(dom, k, "domain", required=True) for k in expected}
    try:
        domain = make_domain(kind, params, horizon)
    except ValueError as exc:
        raise ConfigError(f"[domain] {exc}") from None

    sim = sections.get("sim", {})
    n = _get_int(sim, "n", "sim", default=16)
    scheme = sim.get("scheme", "exponential_em")
    dt = _get_float(sim, "dt", "sim", default=1e-3)
    t_end = _get_float(sim, "t_end", "sim", default=horizon)
    seed = _get_int(sim, "seed", "sim", default=0)
    n_paths = _get_int(sim, "n_paths", "sim", default=1)

    noi = sections.get("noise", {})
    noise_kind = noi.get("kind", "zero")
    model = _build_model(noise_kind, noi, n, base_dir)

    out = sections.get("output", {})
    grid_size = _get_int(out, "grid_size", "output", default=129)
    snapshot_stride = _get_int(out, "snapshot_stride", "output", default=1)

    config = SimulationConfig(
        domain=domain,
        n=n,
        model=model,
        dt=dt,
        t_end=t_end,
        scheme=scheme,
        seed=seed,
        n_paths=n_paths,
        grid_size=grid_size,
        snapshot_stride=snapshot_stride,
    )

    init = sections.get("init", {})
    u0 = _build_initial(init, domain)

    canonical = _canonical_text(sections, defaults={
        "sim": {"n": n, "scheme": scheme, "dt": dt, "t_end": t_end,
                "seed": seed, "n_paths": n_paths},
        "noise": {"kind": noise_kind},
        "output": {"grid_size": grid_size, "snapshot_stride": snapshot_stride},
        "init": {"kind": init.get("kind", "mode")},
    })
    return RunSetup(config, u0, canonical)


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


def _build_model(kind: str, noi: dict, n: int, base_dir: Path):
    m = _get_int(noi, "m", "noise", default=n)
    try:
        if kind == "zero":
            extra = set(noi) - {"kind", "m"}
            if extra:
                raise ConfigError(f"[noise] kind=zero takes no keys {sorted(extra)}")
            return noise_mod.zero_model(m)
        if kind == "moving_diagonal":
            gamma = _get_float(noi, "gamma", "noise", default=0.0)
            beta = _get_float(noi, "beta", "noise", default=0.0)
            p = _get_float(noi, "p", "noise", default=1.0)
            lip = _get_float(noi, "lipschitz_k", "noise", default=None)
            return noise_mod.moving_diagonal(gamma, beta, p, m, lip)
        if kind == "general_matrix":
            if "matrix_path" not in noi:
                raise ConfigError("[noise] kind=general_matrix requires matrix_path")
            lip = _get_float(noi, "lipschitz_k", "noise", required=True)
            table = np.loadtxt(base_dir / noi["matrix_path"], delimiter=",", ndmin=2)
            model = noise_mod.general_matrix(table, lip)
            if table.shape[1] != n:
                raise ConfigError(
                    f"[noise] matrix has {table.shape[1]} columns but [sim] n = {n}"
                )
            return model
    except ValueError as exc:
        raise ConfigError(f"[noise] {exc}") from None
    raise ConfigError(
        f"[noise] kind must be one of {sorted(noise_mod.KINDS)}, got {kind!r}"
    )


def _build_initial(init: dict, domain):
    kind = init.get("kind", "mode")
    a0 = float(domain.a_at(0.0))
    if kind == "mode":
        mode = _get_int(init, "mode", "init", default=1)
        amp = _get_float(init, "amplitude", "init", default=1.0)
        if mode < 1:
            raise ConfigError(f"[init] mode must be >= 1, got {mode}")
        return ModeInitial(mode, amp, a0)
    if kind == "modes":
        raw = _require(init, "amplitudes", "init")
        try:
            amps = tuple(float(v) for v in raw.split(","))
        except ValueError:
            raise ConfigError(f"[init] amplitudes must be comma-separated floats: {raw!r}")
        return ModesInitial(amps, a0)
    if kind == "parabola":
        scale = _get_float(init, "scale", "init", default=1.0)
        return ParabolaInitial(a0, scale)
    raise ConfigError(f"[init] kind must be mode, modes or parabola, got {kind!r}")


def _load_table(path: Path):
    try:
        with open(path, encoding="utf-8", newline="") as fh:
            rows = list(csv.reader(fh))
    except OSError as exc:
        raise ConfigError(f"cannot read table {path}: {exc}") from None
    if rows and not _is_number(rows[0][0]):
        rows = rows[1:]  # header line
    try:
        data = np.array([[float(c) for c in row[:2]] for row in rows if row])
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


def _require(section: dict, key: str, name: str) -> str:
    if key not in section:
        raise ConfigError(f"missing required key {key!r} in [{name}]")
    return section[key]


def _get_float(section, key, name, default=None, required=False):
    if key not in section:
        if required:
            raise ConfigError(f"missing required key {key!r} in [{name}]")
        return default
    try:
        return float(section[key])
    except ValueError:
        raise ConfigError(f"[{name}] {key} must be a number, got {section[key]!r}")


def _get_int(section, key, name, default=None, required=False):
    if key not in section:
        if required:
            raise ConfigError(f"missing required key {key!r} in [{name}]")
        return default
    value = section[key]
    try:
        as_float = float(value)
    except ValueError:
        raise ConfigError(f"[{name}] {key} must be an integer, got {value!r}")
    if as_float != int(as_float):
        raise ConfigError(f"[{name}] {key} must be an integer, got {value!r}")
    return int(as_float)


def _is_number(s: str) -> bool:
    try:
        float(s)
        return True
    except ValueError:
        return False
