"""Radial multiplier symbols F(|xi|) and their elementary calculus.

Families: fractional powers r^{2s}, the half-heat symbol r, log-damped
powers r^s / log^delta(e + r), iterated-log quotients r / phi_p(r), and
tabulated symbols with linear interpolation. A symbol is one of these minus
a constant, F(r) = F_family(r) - shift, so shifting a symbol changes only
that number. Symbols evaluate vectorized over radius arrays; beyond `r_cap`
(default 1e8) evaluation continues linearly along the local trend at r_cap,
which for tabulated symbols (flat extrapolation) means staying flat.
Infima and tail infima are computed numerically, by coarse scan plus
golden-section refinement, even when closed forms exist; the closed forms
serve as oracles in the tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import ValidationError

_FAMILIES = ("fractional", "halfheat", "loglog", "iterated", "custom")
_SCAN_POINTS = 4096  # grid of the infimum scans before golden refinement


@dataclass(frozen=True)
class MultiplierSymbol:
    """One radial symbol F(r) = F_family(r) - shift. Build through the
    module constructors; shifted() moves the shift."""

    family: str
    params: tuple = ()
    shift: float = 0.0
    table: tuple = ()
    monotone_tail: bool = True
    r_cap: float = 1e8

    def __post_init__(self):
        if self.family not in _FAMILIES:
            raise ValidationError(f"unknown symbol family {self.family!r}")
        if not (np.isfinite(self.r_cap) and self.r_cap > 0):
            raise ValidationError(f"r_cap must be positive and finite, got {self.r_cap}")
        if not np.isfinite(self.shift):
            raise ValidationError(f"shift must be finite, got {self.shift}")
        if self.family == "custom":
            object.__setattr__(self, "_nodes", (
                np.array([q[0] for q in self.table]),
                np.array([q[1] for q in self.table])))

    # -- evaluation --------------------------------------------------------

    def eval(self, r):
        """F(r) for r >= 0, scalar or array; linear-trend continuation past r_cap."""
        arr = np.asarray(r, dtype=float)
        if np.any(arr < 0):
            raise ValidationError("symbol argument must be >= 0")
        cap = self.r_cap
        out = self._raw(np.minimum(arr, cap))
        over = arr > cap
        if np.any(over):
            h = cap * 1e-6
            slope = (self._raw(cap) - self._raw(cap - h)) / h
            out = np.where(over, self._raw(cap) + slope * (arr - cap), out)
        out = out - self.shift
        return out if isinstance(r, np.ndarray) else float(out)

    def _raw(self, r):
        r = np.asarray(r, dtype=float)
        if self.family == "fractional":
            (s,) = self.params
            return r ** (2.0 * s)
        if self.family == "halfheat":
            return r.copy()
        if self.family == "loglog":
            s, delta = self.params
            return r**s / np.log(math.e + r) ** delta
        if self.family == "iterated":
            (p,) = self.params
            return r / IteratedLogAux(int(p)).phi(r)
        # custom: piecewise linear, flat beyond the table (np.interp clamps)
        return np.interp(r, *self._nodes)

    # -- metadata used by the experiments ----------------------------------

    @property
    def convex_in_log(self) -> bool:
        """True when F(e^s) is convex in s, enabling ternary moment search."""
        return self.family in ("fractional", "halfheat")

    def is_bounded(self) -> bool:
        return self.family == "custom"

    def sup_value(self) -> float:
        if not self.is_bounded():
            raise ValidationError(f"{self.family} symbol is unbounded")
        return float(max(q[1] for q in self.table) - self.shift)

    def limit_value(self) -> float:
        """Value of the flat tail (bounded symbols only)."""
        if not self.is_bounded():
            raise ValidationError(f"{self.family} symbol is unbounded")
        return float(self.table[-1][1] - self.shift)

    @property
    def inf_value(self) -> float:
        """Cached numeric inf over [0, r_max_default]."""
        cached = getattr(self, "_inf_cache", None)
        if cached is None:
            cached = inf_F(self).value
            object.__setattr__(self, "_inf_cache", cached)
        return cached

    def describe(self) -> str:
        if self.family == "fractional":
            name = f"fractional(s={self.params[0]})"
        elif self.family == "halfheat":
            name = "halfheat"
        elif self.family == "loglog":
            name = f"loglog(s={self.params[0]}, delta={self.params[1]})"
        elif self.family == "iterated":
            name = f"iterated(p={self.params[0]})"
        else:
            name = f"custom({len(self.table)} nodes)"
        return f"shifted({name}, mu={self.shift})" if self.shift else name


# ---------------------------------------------------------------------------
# Constructors


def fractional(s: float) -> MultiplierSymbol:
    """F(r) = r^{2s}."""
    if not (np.isfinite(s) and s > 0):
        raise ValidationError(f"fractional exponent s must be > 0, got {s}")
    return MultiplierSymbol(family="fractional", params=(float(s),))


def halfheat() -> MultiplierSymbol:
    """F(r) = r."""
    return MultiplierSymbol(family="halfheat")


def loglog(s: float, delta: float) -> MultiplierSymbol:
    """F(r) = r^s / log^delta(e + r)."""
    if not (np.isfinite(s) and s > 0):
        raise ValidationError(f"loglog power s must be > 0, got {s}")
    if not (np.isfinite(delta) and delta >= 0):
        raise ValidationError(f"loglog damping delta must be >= 0, got {delta}")
    return MultiplierSymbol(family="loglog", params=(float(s), float(delta)))


def iterated(p: int) -> MultiplierSymbol:
    """F(r) = r / phi_p(r) with phi_p the product of iterated logs."""
    if not (isinstance(p, (int, np.integer)) and 1 <= p <= 8):
        raise ValidationError(f"iteration depth p must be an integer in [1, 8], got {p}")
    return MultiplierSymbol(family="iterated", params=(int(p),))


def shifted(base: MultiplierSymbol, mu: float) -> MultiplierSymbol:
    """F(r) = base(r) - mu."""
    if not isinstance(base, MultiplierSymbol):
        raise ValidationError("shifted base must be a MultiplierSymbol")
    return replace(base, shift=base.shift + float(mu))


def custom(table, monotone_tail: bool = True) -> MultiplierSymbol:
    """Tabulated symbol: linear interpolation, flat extrapolation."""
    rows = tuple((float(r), float(v)) for r, v in table)
    if len(rows) < 2:
        raise ValidationError("custom table needs at least 2 nodes")
    xs = [r for r, _ in rows]
    if any(b <= a for a, b in zip(xs, xs[1:])):
        raise ValidationError("custom table radii must be strictly increasing")
    if xs[0] < 0:
        raise ValidationError("custom table radii must be >= 0")
    if not all(np.isfinite(v) for _, v in rows):
        raise ValidationError("custom table values must be finite")
    return MultiplierSymbol(family="custom", table=rows, monotone_tail=monotone_tail)


def constant(c: float) -> MultiplierSymbol:
    """F identically equal to c (a two-node flat table)."""
    return custom(((0.0, c), (1.0, c)))


def saturating(r_knee: float = 1.0, r_span: float = 200.0) -> MultiplierSymbol:
    """Bounded symbol F(r) = r / (r_knee + r), tabulated on [0, r_span].

    The table is uniform through twice the knee and geometric beyond, keeping
    the interpolation error under about 1e-6 of the true curve, and the flat
    extrapolation past r_span makes the symbol genuinely bounded with
    limit_value() = r_span / (r_knee + r_span).
    """
    if not (np.isfinite(r_knee) and r_knee > 0):
        raise ValidationError(f"saturating knee must be > 0, got {r_knee}")
    if not (np.isfinite(r_span) and r_span > 2.0 * r_knee):
        raise ValidationError(f"saturating span must exceed twice the knee, got {r_span}")
    knee, span = float(r_knee), float(r_span)
    xs = np.concatenate([
        np.linspace(0.0, 2.0 * knee, 2001),
        np.geomspace(2.0 * knee, span, 2001)[1:],
    ])
    return custom(tuple(zip(xs, xs / (knee + xs))))


# ---------------------------------------------------------------------------
# Iterated logarithm helper


@dataclass(frozen=True)
class IteratedLogAux:
    """phi_p(t) = prod_{i=1..p} g^(i)(t) with g(t) = log(e + t), plus derivatives.

    The log-derivative expansion
        phi_p'/phi_p = sum_i (1/g^(i)) prod_{j<=i} 1/(e + g^(j-1))
    is exact for every depth and doubles as the cross-check oracle for the
    finite-difference route used by the bound checks.
    """

    depth: int

    def __post_init__(self):
        if not (1 <= self.depth <= 8):
            raise ValidationError(f"depth must be in [1, 8], got {self.depth}")

    @staticmethod
    def g(t):
        return np.log(math.e + np.asarray(t, dtype=float))

    def iterates(self, t):
        """[g(t), g(g(t)), ..., g^(depth)(t)]."""
        out = []
        cur = np.asarray(t, dtype=float)
        for _ in range(self.depth):
            cur = self.g(cur)
            out.append(cur)
        return out

    def phi(self, t):
        prod = np.ones_like(np.asarray(t, dtype=float))
        for it in self.iterates(t):
            prod = prod * it
        return prod

    def phi_log_derivative(self, t):
        t = np.asarray(t, dtype=float)
        its = [t] + self.iterates(t)  # g^(0) .. g^(depth)
        total = np.zeros_like(t)
        chain = np.ones_like(t)
        for i in range(1, self.depth + 1):
            chain = chain / (math.e + its[i - 1])  # prod of g'(g^(j-1))
            total = total + chain / its[i]
        return total

    def f_derivative(self, t):
        """Closed-form derivative of F_p(t) = t / phi_p(t)."""
        t = np.asarray(t, dtype=float)
        return (1.0 - t * self.phi_log_derivative(t)) / self.phi(t)


# ---------------------------------------------------------------------------
# Numeric infima


@dataclass(frozen=True)
class InfResult:
    value: float
    location: float
    reliable: bool


def _golden_min(fn, lo: float, hi: float, tol: float) -> tuple:
    """Golden-section minimum of a scalar function on [lo, hi]."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = fn(c), fn(d)
    while b - a > tol:
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = fn(d)
    x = c if fc <= fd else d
    return x, fn(x)

def _scan_min(symbol: MultiplierSymbol, lo: float, hi: float) -> InfResult:
    grid = np.linspace(lo, hi, _SCAN_POINTS)
    vals = symbol.eval(grid)
    i = int(np.argmin(vals))
    a = grid[max(i - 1, 0)]
    b = grid[min(i + 1, _SCAN_POINTS - 1)]
    x, v = _golden_min(lambda r: float(symbol.eval(r)), a, b, tol=1e-10 * (1.0 + hi - lo))
    # keep the exact grid value when refinement does not beat it
    if vals[i] <= v:
        x, v = float(grid[i]), float(vals[i])
    at_edge = i >= _SCAN_POINTS - 2
    return InfResult(value=float(v), location=float(x), reliable=symbol.monotone_tail or not at_edge)


def _default_hi(symbol: MultiplierSymbol, lo: float) -> float:
    if symbol.family == "custom":
        return max(symbol.table[-1][0], lo + 1.0)
    return max(1e4, lo + 10.0)


def inf_F(symbol: MultiplierSymbol, r_max: float | None = None) -> InfResult:
    """Numeric inf of F over [0, r_max]."""
    hi = float(r_max) if r_max is not None else _default_hi(symbol, 0.0)
    if hi <= 0:
        raise ValidationError(f"r_max must be > 0, got {hi}")
    return _scan_min(symbol, 0.0, hi)


def alpha_R(symbol: MultiplierSymbol, R: float,
            r_max: float | None = None) -> InfResult:
    """Numeric tail infimum inf_{r >= R} F(r), scanned on [R, r_max]."""
    if not (np.isfinite(R) and R >= 0):
        raise ValidationError(f"R must be >= 0 and finite, got {R}")
    hi = float(r_max) if r_max is not None else _default_hi(symbol, R)
    if hi <= R:
        raise ValidationError(f"r_max={hi} must exceed R={R}")
    return _scan_min(symbol, R, hi)
