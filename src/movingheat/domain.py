"""Moving-boundary motions a(t) and their admissibility bounds.

The right endpoint of the spatial interval (0, a(t)) is a C^1 function of
time.  Every family here exposes the boundary position and its velocity,
plus sampled lower/upper bounds (``delta0``, ``big_l``) that downstream
stability heuristics rely on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Mapping

import numpy as np

if TYPE_CHECKING:  # imported where a table domain is built: scipy is slow to load
    from scipy.interpolate import CubicSpline

# family -> (parameter names, a(t), a'(t)); each function takes the motion and t
FAMILIES = {
    "constant": ({"a0"}, lambda m, t: m.params["a0"] + 0.0 * t, lambda m, t: 0.0 * t),
    "linear": (
        {"a0", "slope"},
        lambda m, t: m.params["a0"] + m.params["slope"] * t,
        lambda m, t: m.params["slope"] + 0.0 * t,
    ),
    "sinusoidal": (
        {"a0", "amp", "omega"},
        lambda m, t: m.params["a0"] + m.params["amp"] * np.sin(m.params["omega"] * t),
        lambda m, t: m.params["amp"] * m.params["omega"] * np.cos(m.params["omega"] * t),
    ),
    "exponential": (
        {"a0", "slope"},
        lambda m, t: m.params["a0"] * np.exp(m.params["slope"] * t),
        lambda m, t: m.params["slope"] * m.params["a0"] * np.exp(m.params["slope"] * t),
    ),
    "table": ({"t", "a"}, lambda m, t: m._spline(t)[()], lambda m, t: m._spline(t, 1)[()]),
}

_N_SAMPLE = 1000
_MARGIN = 0.01
# slack for endpoint time queries produced by floating-point step grids
_T_SLACK = 1e-9


@dataclass(frozen=True, eq=False)
class DomainMotion:
    """A validated boundary motion on [0, horizon].

    ``delta0 <= a(t)`` and ``max(a(t), |a'(t)|) <= big_l`` hold on a dense
    time sample by construction.  Instances are immutable and safe to share
    across worker processes.
    """

    kind: str
    params: dict[str, float]
    horizon: float
    delta0: float
    big_l: float
    _spline: CubicSpline | None = field(default=None, repr=False, compare=False)

    def a_at(self, t):
        """Boundary position a(t); accepts scalars or arrays."""
        return FAMILIES[self.kind][1](self, self._check_time(t))

    def a_prime_at(self, t):
        """Boundary velocity a'(t); accepts scalars or arrays."""
        return FAMILIES[self.kind][2](self, self._check_time(t))

    def _check_time(self, t):
        slack = _T_SLACK * max(1.0, self.horizon)
        lo, hi = -slack, self.horizon + slack  # NaN fails both range tests below
        if type(t) is float or np.ndim(t) == 0:
            t = float(t)
            if not lo <= t <= hi:
                raise ValueError(
                    f"time {t!r} outside [0, {self.horizon}] for domain motion"
                )
            return min(max(t, 0.0), self.horizon)
        t = np.asarray(t, dtype=float)
        if not (np.all(t >= lo) and np.all(t <= hi)):
            raise ValueError(
                f"time array outside [0, {self.horizon}] for domain motion"
            )
        return np.clip(t, 0.0, self.horizon)


def make_domain(kind: str, params: Mapping, horizon: float) -> DomainMotion:
    """Build and validate a boundary motion.

    ``params`` holds the family parameters (for ``table``: arrays ``t`` and
    ``a`` of knots, interpolated by a natural cubic spline so the motion is
    C^1).  The bounds ``delta0``/``big_l`` come from a 1000-point sample,
    shrunk/grown by 1% as a safety margin.  Raises ``ValueError`` if a
    sampled a or a' is not finite or the sampled minimum of a is not
    strictly positive.
    """
    if kind not in FAMILIES:
        raise ValueError(f"unknown domain kind {kind!r}; expected one of {tuple(FAMILIES)}")
    if not horizon > 0:
        raise ValueError(f"horizon must be positive, got {horizon}")
    expected = FAMILIES[kind][0]
    got = set(params)
    if got != expected:
        raise ValueError(
            f"domain kind {kind!r} takes parameters {sorted(expected)}, got {sorted(got)}"
        )

    spline = None
    if kind == "table":
        ts = np.asarray(params["t"], dtype=float)
        vals = np.asarray(params["a"], dtype=float)
        if ts.ndim != 1 or ts.shape != vals.shape or ts.size < 4:
            raise ValueError("table domain needs matching 1-D t/a arrays with >= 4 knots")
        if np.any(np.diff(ts) <= 0):
            raise ValueError("table knots must be strictly increasing in t")
        if ts[0] > 0 or ts[-1] < horizon:
            raise ValueError(
                f"table knots cover [{ts[0]}, {ts[-1]}], need [0, {horizon}]"
            )
        from scipy.interpolate import CubicSpline

        spline = CubicSpline(ts, vals, bc_type="natural")
        clean = {"t": ts, "a": vals}
    else:
        clean = {k: float(v) for k, v in params.items()}

    probe = DomainMotion(kind, clean, float(horizon), np.nan, np.nan, spline)
    with np.errstate(all="ignore"):  # overflow is reported below, not warned about
        ts = np.linspace(0.0, horizon, _N_SAMPLE)
        avals = np.asarray(probe.a_at(ts), dtype=float)
        apvals = np.asarray(probe.a_prime_at(ts), dtype=float)
    if not (np.all(np.isfinite(avals)) and np.all(np.isfinite(apvals))):
        raise ValueError(f"domain motion has non-finite a(t) or a'(t) on [0, {horizon}]")
    a_min = float(np.min(avals))
    if a_min <= 0.0:
        raise ValueError(
            f"domain motion reaches a(t) = {a_min} <= 0 on [0, {horizon}]; not admissible"
        )
    delta0 = a_min * (1.0 - _MARGIN)
    big_l = max(float(np.max(avals)), float(np.max(np.abs(apvals)))) * (1.0 + _MARGIN)
    return DomainMotion(kind, clean, float(horizon), delta0, big_l, spline)
