"""Radial multiplier symbols F(|xi|) and their elementary calculus.

One table, _FAMILIES, defines every family: its name maps to the formula
F_family(r, *args) on float arrays and to the label describe() prints.
The families are fractional powers r^{2s}, the half-heat symbol r,
log-damped powers r^s / log^delta(e + r), iterated-log quotients
r / phi_p(r), and tabulated symbols, linear through their nodes. A symbol
is one of these minus a constant, F(r) = F_family(r) - shift, so shifting a
symbol changes only that number. Symbols evaluate their formula,
vectorized over radius arrays, at every r >= 0; where it overflows the value
is inf.
Infima and tail infima are computed numerically, even when closed forms
exist (they serve as oracles in the tests): a coarse scan, then
_refine_max, which zooms every bracket around a grid optimum down to a width
tol and keeps the exact grid value unless the refinement beats it; qa's
moment suprema use it too. _bracket_root, the one monotone root search,
doubles a bracket and bisects it down to adjacent floats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConvergenceError, ValidationError

# name: (F_family(r, *args), describe label). The args are the symbol's
# params, except for custom: its node radii and values, which the label counts.
_FAMILIES = {
    "fractional": (lambda r, s: r ** (2.0 * s), "fractional(s={})"),
    "halfheat": (lambda r: r, "halfheat"),
    "loglog": (lambda r, s, delta: r**s / np.log(math.e + r) ** delta,
               "loglog(s={}, delta={})"),
    "iterated": (lambda r, p: r / IteratedLogAux(int(p)).phi(r), "iterated(p={})"),
    # piecewise linear, flat beyond the table (np.interp clamps)
    "custom": (np.interp, "custom({nodes} nodes)"),
}
_SCAN_POINTS = 4096  # grid of the infimum scans before refinement
_R_CAP = 1e8  # radius at which qa's moment and root searches give up
_ZOOM_POINTS = 8  # samples per bracket in each zoom of _refine_max
_MAX_ZOOMS = 40  # ends a zoom whose bracket cannot get below tol in floats


@dataclass(frozen=True, eq=False)
class MultiplierSymbol:
    """One radial symbol F(r) = F_family(r) - shift. Build through the
    module constructors; shifted() moves the shift. A custom symbol holds its
    nodes as one read-only 2 x n float64 array, radii over values, in _nodes;
    .table rebuilds the rows on access. Symbols compare by identity."""

    family: str
    params: tuple = ()
    shift: float = 0.0
    _nodes: np.ndarray | tuple = ()

    def __post_init__(self):
        if self.family not in _FAMILIES:
            raise ValidationError(f"unknown symbol family {self.family!r}")
        if not np.isfinite(self.shift):
            raise ValidationError(f"shift must be finite, got {self.shift}")
        if self.family == "custom":
            xs, vs = nodes = np.asarray(self._nodes, dtype=float)
            if np.any(xs[1:] <= xs[:-1]):
                raise ValidationError("custom table radii must be strictly increasing")
            if xs[0] < 0:
                raise ValidationError("custom table radii must be >= 0")
            if not np.all(np.isfinite(vs)):
                raise ValidationError("custom table values must be finite")
            nodes.setflags(write=False)
            object.__setattr__(self, "_nodes", nodes)

    @property
    def table(self) -> tuple:  # a custom symbol's (radius, value) rows, Python floats
        return tuple(zip(*np.asarray(self._nodes).tolist()))

    # -- evaluation --------------------------------------------------------

    def eval(self, r):
        """F(r) for r >= 0, scalar or array."""
        arr = np.asarray(r, dtype=float)
        if np.any(arr < 0):
            raise ValidationError("symbol argument must be >= 0")
        args = self._nodes if self.family == "custom" else self.params
        out = _FAMILIES[self.family][0](arr, *args) - self.shift
        return out if isinstance(r, np.ndarray) else float(out)

    # -- metadata used by the experiments ----------------------------------

    def is_bounded(self) -> bool:
        return self.family == "custom"

    def sup_value(self) -> float:
        if not self.is_bounded():
            raise ValidationError(f"{self.family} symbol is unbounded")
        return float(self._nodes[1].max() - self.shift)

    def limit_value(self) -> float:
        """Value of the flat tail (bounded symbols only)."""
        if not self.is_bounded():
            raise ValidationError(f"{self.family} symbol is unbounded")
        return float(self._nodes[1, -1] - self.shift)

    @property
    def inf_value(self) -> float:
        """Cached inf_F(self).value, the numeric inf of F over r >= 0."""
        cached = getattr(self, "_inf_cache", None)
        if cached is None:
            cached = inf_F(self).value
            object.__setattr__(self, "_inf_cache", cached)
        return cached

    def describe(self) -> str:
        name = _FAMILIES[self.family][1].format(*self.params, nodes=np.size(self._nodes) // 2)
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


def custom(table) -> MultiplierSymbol:
    """Tabulated symbol: linear interpolation, flat extrapolation. The
    (radius, value) rows are kept as their two float64 columns."""
    try:
        rows = tuple(table)
        cols = np.array(tuple(zip(*rows, strict=True)), dtype=float).reshape(2, len(rows))
    except (TypeError, ValueError):
        raise ValidationError("custom table must be a sequence of (radius, value) rows") from None
    if len(rows) < 2:
        raise ValidationError("custom table needs at least 2 nodes")
    return MultiplierSymbol(family="custom", _nodes=cols)


def constant(c: float) -> MultiplierSymbol:
    """F identically equal to c (a two-node flat table)."""
    return custom(((0.0, c), (1.0, c)))


def saturating(r_knee: float = 1.0, r_span: float = 200.0) -> MultiplierSymbol:
    """Bounded symbol F(r) = r / (r_knee + r), tabulated on [0, r_span].

    The table is uniform through twice the knee and geometric beyond, keeping
    the interpolation error under about 1e-6 of the true curve, and the flat
    extrapolation past r_span makes the symbol genuinely bounded with
    limit_value() = r_span / (r_knee + r_span). The columns go in as built.
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
    return MultiplierSymbol(family="custom", _nodes=(xs, xs / (knee + xs)))


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


def _refine_max(h, grid, idx, vals, tol: float) -> tuple:
    """Refine coarse grid maxima of h, many brackets at once.

    Bracket i is [grid[idx[i] - 1], grid[idx[i] + 1]], clipped at the grid
    ends, and vals[i] is h at grid[idx[i]]. h maps a (_ZOOM_POINTS, m) array
    of abscissae, column i inside bracket i, to its values. Each zoom samples
    every bracket at _ZOOM_POINTS even points and narrows it to the best
    sample's neighbours, until all are narrower than tol. The exact grid
    value is kept unless the refinement beats it. Returns (argmax, max).
    """
    a = grid[np.maximum(idx - 1, 0)]
    b = grid[np.minimum(idx + 1, len(grid) - 1)]
    n = np.arange(_ZOOM_POINTS, dtype=float)[:, None]
    for _ in range(_MAX_ZOOMS):  # each zoom shrinks a bracket at least 3.5-fold
        step = (b - a) / (_ZOOM_POINTS - 1)
        x = a + step * n
        y = h(x)
        j = np.argmax(y, axis=0)
        if np.all(b - a < tol):
            break
        a, b = a + step * np.maximum(j - 1, 0), a + step * np.minimum(j + 1, _ZOOM_POINTS - 1)
    cols = np.arange(len(idx))
    keep = vals >= y[j, cols]
    return np.where(keep, grid[idx], x[j, cols]), np.where(keep, vals, y[j, cols])


def _scan_min(symbol: MultiplierSymbol, lo: float, hi: float) -> InfResult:
    grid = np.linspace(lo, hi, _SCAN_POINTS)
    # a steep F overflows away from its minimum, even inside the first refine
    # bracket; inf is the exact value for a min search
    with np.errstate(over="ignore"):
        vals = symbol.eval(grid)
        i = int(np.argmin(vals))
        if i == len(grid) - 1 and symbol.family != "custom":
            raise ValidationError(
                f"{symbol.describe()} still decreases at r = {hi:g}, the right "
                f"end of its infimum scan window [{lo:g}, {hi:g}]; the infimum "
                "lies past the window")
        (x,), (v,) = _refine_max(lambda r: -symbol.eval(r), grid, np.array([i]),
                                 -vals[i:i + 1], tol=1e-10 * (1.0 + hi - lo))
    return InfResult(value=float(-v), location=float(x))


def _bracket_root(g, lo: float, hi: float, cap: float, what: str) -> tuple:
    """Adjacent floats lo < hi with g(lo) < 0 <= g(hi), for increasing g.

    Needs g(lo) < 0. Doubles hi until g changes sign, then bisects; raises
    ConvergenceError when hi passes cap first.
    """
    start = lo
    while g(hi) < 0:
        lo, hi = hi, 2.0 * hi
        if hi > cap:
            raise ConvergenceError(
                f"bisection bracket failure for {what}: scanned [{start:g}, {hi:.3g}]")
    while True:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            return lo, hi
        if g(mid) < 0:
            lo = mid
        else:
            hi = mid


def _default_hi(symbol: MultiplierSymbol, lo: float) -> float:
    """Right end of the scan window from lo: past the last node of a table,
    which is flat beyond it, else 1e4, where a still-falling formula is refused."""
    if symbol.family == "custom":
        return max(float(symbol._nodes[0, -1]), lo + 1.0)
    return max(1e4, lo + 10.0)


def inf_F(symbol: MultiplierSymbol) -> InfResult:
    """Numeric inf of F over r >= 0, scanned on [0, _default_hi(symbol, 0)]."""
    return _scan_min(symbol, 0.0, _default_hi(symbol, 0.0))


def alpha_R(symbol: MultiplierSymbol, R: float) -> InfResult:
    """Numeric tail infimum inf_{r >= R} F(r), scanned on [R, _default_hi(symbol, R)]."""
    if not (np.isfinite(R) and R >= 0):
        raise ValidationError(f"R must be >= 0 and finite, got {R}")
    return _scan_min(symbol, R, _default_hi(symbol, R))
