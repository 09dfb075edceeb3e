"""Moving-boundary motions a(t) and their admissibility bounds.

The right endpoint of the spatial interval (0, a(t)) is a C^1 function of
time.  Every family here exposes the boundary position and its velocity,
plus sampled lower/upper bounds (``delta0``, ``big_l``) that downstream
stability heuristics rely on.  The ``table`` family is a natural cubic
spline through measured knots, built here in numpy: building or evaluating
a domain imports no scipy.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Mapping

import numpy as np

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
    "table": ({"t", "a"}, lambda m, t: _cubic(m, t, 0), lambda m, t: _cubic(m, t, 1)),
}

_N_SAMPLE = 1000
_MARGIN = 0.01
# slack for endpoint time queries produced by floating-point step grids
_T_SLACK = 1e-9


@dataclass(frozen=True, eq=False)
class DomainMotion:
    """A validated boundary motion on [0, horizon].

    ``delta0 <= a(t)`` and ``max(a(t), |a'(t)|) <= big_l`` hold on a dense
    time sample by construction.  Instances are immutable, ``params`` included,
    and safe to share across worker processes.
    """

    kind: str
    params: Mapping
    horizon: float
    delta0: float
    big_l: float
    _spline: np.ndarray | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):  # delta0 and big_l were sampled from these parameters
        object.__setattr__(self, "params", MappingProxyType(dict(self.params)))

    def __reduce__(self):  # a mappingproxy does not pickle: rebuild from a plain copy
        return DomainMotion, (self.kind, dict(self.params), self.horizon, self.delta0,
                              self.big_l, self._spline)

    def a_at(self, t):
        """Boundary position a(t); accepts scalars or arrays."""
        return FAMILIES[self.kind][1](self, self._check_time(t))

    def a_prime_at(self, t):
        """Boundary velocity a'(t); accepts scalars or arrays."""
        return FAMILIES[self.kind][2](self, self._check_time(t))

    def _check_time(self, t):
        """t as floats clipped to [0, horizon]; a 0-d t comes back as an np.float64."""
        slack = _T_SLACK * max(1.0, self.horizon)
        t = np.asarray(t, dtype=float)
        if not (np.all(t >= -slack) and np.all(t <= self.horizon + slack)):  # NaN fails both
            what = f"time {float(t)!r}" if t.ndim == 0 else "time array"
            raise ValueError(f"{what} outside [0, {self.horizon}] for domain motion")
        return np.clip(t, 0.0, self.horizon)


def make_domain(kind: str, params: Mapping, horizon: float) -> DomainMotion:
    """Build and validate a boundary motion.

    ``params`` holds the family parameters (for ``table``: arrays ``t`` and
    ``a`` of at least 4 finite knots, strictly increasing in t and covering
    [0, horizon], interpolated by a natural cubic spline so the motion is
    C^1; a(t_i) is the knot value exactly).  The bounds ``delta0``/``big_l``
    come from a 1000-point sample, shrunk/grown by 1% as a safety margin.
    Raises ``ValueError`` if the knots are not so, if a sampled a or a' is
    not finite or the sampled minimum of a is not strictly positive.
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

    if kind == "table":
        # own read-only copies: the spline keeps reading the knots
        ts = np.array(params["t"], dtype=float)
        vals = np.array(params["a"], dtype=float)
        ts.flags.writeable = vals.flags.writeable = False
        if ts.ndim != 1 or ts.shape != vals.shape or ts.size < 4:
            raise ValueError("table domain needs matching 1-D t/a arrays with >= 4 knots")
        if not (np.all(np.isfinite(ts)) and np.all(np.isfinite(vals))):
            raise ValueError("table knots t and a must be finite")
        if np.any(np.diff(ts) <= 0):
            raise ValueError("table knots must be strictly increasing in t")
        if ts[0] > 0 or ts[-1] < horizon:
            raise ValueError(
                f"table knots cover [{ts[0]}, {ts[-1]}], need [0, {horizon}]"
            )
        clean = {"t": ts, "a": vals}
    else:
        clean = {k: float(v) for k, v in params.items()}

    with np.errstate(all="ignore"):  # overflow is reported below, not warned about
        spline = _natural_spline(clean["t"], clean["a"]) if kind == "table" else None
        probe = DomainMotion(kind, clean, float(horizon), np.nan, np.nan, spline)
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


def _natural_spline(ts: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """(4, K) coefficients of the natural cubic spline (a'' = 0 at both ends) through the
    K knots (ts, ys), in scipy's PPoly layout: column i holds c0..c3 of
    c0 x^3 + c1 x^2 + c2 x + c3, x = t - ts[i].

    The knot slopes s solve scipy's tridiagonal system, which is strictly diagonally
    dominant, so one Thomas sweep without pivoting is stable.  The last column, at the
    last knot, holds its value and slope, so a(ts[-1]) is ys[-1] as at every knot.
    """
    dx = np.diff(ts)
    slope = np.diff(ys) / dx
    lower = np.append(dx[1:], dx[-1]).tolist()  # row i + 1 couples to s[i]
    upper = np.append(dx[0], dx[:-1]).tolist()  # row i couples to s[i + 1]
    diag = (2.0 * np.concatenate(([dx[0]], dx[:-1] + dx[1:], [dx[-1]]))).tolist()
    rhs = (3.0 * np.concatenate(([ys[1] - ys[0]], dx[1:] * slope[:-1] + dx[:-1] * slope[1:],
                                 [ys[-1] - ys[-2]]))).tolist()
    for i in range(1, len(diag)):
        w = lower[i - 1] / diag[i - 1]
        diag[i] -= w * upper[i - 1]
        rhs[i] -= w * rhs[i - 1]
    s = rhs  # back substitution overwrites the right-hand side with the slopes
    s[-1] /= diag[-1]
    for i in range(len(s) - 2, -1, -1):
        s[i] = (s[i] - upper[i] * s[i + 1]) / diag[i]
    s = np.array(s)
    t = (s[:-1] + s[1:] - 2.0 * slope) / dx
    return np.stack([np.append(t / dx, 0.0), np.append((slope - s[:-1]) / dx - t, 0.0), s,
                     ys])


def _cubic(motion: DomainMotion, t, nu: int):
    """The table spline (nu = 0) or its derivative (nu = 1) at times t in [0, horizon]:
    one searchsorted and one fixed elementwise expression, so scalars and arrays agree
    bitwise.  The terms are summed in scipy's PPoly order, lowest power first."""
    knots = motion.params["t"]
    i = np.searchsorted(knots, t, side="right") - 1
    c0, c1, c2, c3 = np.take(motion._spline, i, axis=1)
    x = t - knots[i]
    x2 = x * x
    if nu == 0:
        return c3 + c2 * x + c1 * x2 + c0 * (x2 * x)
    return c2 + c1 * x * 2.0 + c0 * x2 * 3.0
