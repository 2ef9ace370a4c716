"""Bernstein moment sequences M_k = sup_r r^k e^{-scale F(r)} and their tests.

Everything runs on the log scale: log M_k = sup_s [k s - scale F(e^s)], a
supremum whose maximizer moves monotonically to the right as k grows. The
batch optimizer exploits that with a shared coarse grid, then refines all
k at once with the symbols module's zoom search, which stops at a bracket
width of 1e-8 in log radius; ten-thousand-moment sequences cost a fraction
of a second.

The module also hosts the diagnostics used throughout: divergence of the
ratio series sum M_k / M_{k+1} (the quasi-analyticity signature), log-convexity,
the partial integrals of F(t)/(1+t^2) by one Gauss-Legendre rule on fixed
panels, the moment scaling inequality between scales T and 1, and the
slowly-varying bounds for symbols r / phi_p(r) built from iterated logarithms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, IntegrationError, MomentDivergenceError, ValidationError
from .grid import _write_csv
from .symbols import (_R_CAP, IteratedLogAux, MultiplierSymbol, _bracket_root, _refine_max,
                      inf_F, iterated)

_S_LO = -50.0
_GRID_POINTS = 4096  # coarse log-radius grid that seeds the refinement
_S_TOL = 1e-8  # width in log radius at which the refinement stops
_K_FLOOR = 100.0  # smallest k at which the asymptotic depth bounds are tested


def _check_k(k) -> float:
    k = float(k)
    if not (np.isfinite(k) and k >= 0):
        raise ValidationError(f"moment index k must be finite and >= 0, got {k}")
    return k


def _check_scale(scale) -> float:
    scale = float(scale)
    if not (np.isfinite(scale) and scale > 0):
        raise ValidationError(f"moment scale must be positive and finite, got {scale}")
    return scale


def _moment_batch(symbol: MultiplierSymbol, ks: np.ndarray,
                  scale: float) -> tuple:
    """log M_k and argmax radius for an ascending array of k > 0."""
    s_hi = math.log(_R_CAP)
    s = np.linspace(_S_LO, s_hi, _GRID_POINTS)
    # a steep F overflows far from the maximizer; inf is the exact value for a max scan
    with np.errstate(over="ignore"):
        fe = scale * symbol.eval(np.exp(s))
    idx = np.empty(len(ks), dtype=int)
    j0 = 0
    for i, k in enumerate(ks):
        # grid argmax of k*s - fe over j >= j0; the maximizer never moves left
        j0 += int(np.argmax(k * s[j0:] - fe[j0:]))
        idx[i] = j0
    if np.any(idx >= _GRID_POINTS - 2):
        bad = float(ks[int(np.argmax(idx >= _GRID_POINTS - 2))])
        raise MomentDivergenceError(
            f"supremum of r^k e^(-scale F) appears infinite for k={bad}: "
            f"maximizer ran into the search cap r={math.exp(s_hi):.3g}")

    def h(sv):
        return ks * sv - scale * symbol.eval(np.exp(sv))

    s_star, vals = _refine_max(h, s, idx, ks * s[idx] - fe[idx], _S_TOL)
    return vals, np.exp(s_star)


def log_moment(symbol: MultiplierSymbol, k, scale: float = 1.0) -> tuple:
    """(log M_k, argmax radius) for M_k = sup_{r>=0} r^k e^{-scale F(r)}.

    Raises MomentDivergenceError when the supremum is infinite, which happens
    exactly for bounded symbols with k >= 1.
    """
    k = _check_k(k)
    scale = _check_scale(scale)
    if symbol.is_bounded() and k > 0:
        raise MomentDivergenceError(
            f"supremum infinite: {symbol.describe()} is bounded, so r^{k:g} e^(-scale F) diverges")
    if k == 0:
        res = inf_F(symbol)
        return -scale * res.value, res.location
    logs, locs = _moment_batch(symbol, np.array([k]), scale)
    return float(logs[0]), float(locs[0])


@dataclass(frozen=True)
class QASequence:
    """A computed moment sequence for one symbol at one scale.

    log_moments[k] is log M_k for k = 0..k_max; argmax_locations holds the
    maximizing radii (the k = 0 entry is the minimizer of F itself). The pair
    (tail_log_moment, tail_argmax) carries k_max + 1 so every stored ratio
    M_k / M_{k+1} is defined. ratio_bound is the largest such ratio. The
    maximizers are fixed only to the rounding of k s - scale F(e^s), about
    5e-8 relative in r; the log moments carry about 1e-13.
    """

    symbol: MultiplierSymbol
    scale: float
    k_max: int
    log_moments: tuple
    argmax_locations: tuple
    tail_log_moment: float
    tail_argmax: float
    ratio_bound: float

    def log_moment_at(self, k: int) -> float:
        if k == self.k_max + 1:
            return self.tail_log_moment
        return self.log_moments[k]

    def ratio(self, k: int) -> float:
        """M_k / M_{k+1} for 0 <= k <= k_max."""
        if not 0 <= k <= self.k_max:
            raise ValidationError(f"ratio index must be in [0, {self.k_max}], got {k}")
        return math.exp(self.log_moments[k] - self.log_moment_at(k + 1))


def build_sequence(symbol: MultiplierSymbol, k_max: int,
                   scale: float = 1.0) -> QASequence:
    """Compute M_0 .. M_{k_max+1} and package them, checking log-convexity."""
    if not (isinstance(k_max, (int, np.integer)) and k_max >= 1):
        raise ValidationError(f"k_max must be an integer >= 1, got {k_max}")
    scale = _check_scale(scale)
    if symbol.is_bounded():
        raise MomentDivergenceError(
            f"supremum infinite: {symbol.describe()} is bounded, so the moment sequence diverges")
    ks = np.arange(1, k_max + 2, dtype=float)
    logs, locs = _moment_batch(symbol, ks, scale)
    zero = inf_F(symbol)
    log_all = np.concatenate([[-scale * zero.value], logs])
    loc_all = np.concatenate([[zero.location], locs])
    ratios = np.exp(log_all[:-1] - log_all[1:])
    seq = QASequence(
        symbol=symbol, scale=scale, k_max=int(k_max),
        log_moments=tuple(float(v) for v in log_all[:-1]),
        argmax_locations=tuple(float(v) for v in loc_all[:-1]),
        tail_log_moment=float(log_all[-1]),
        tail_argmax=float(loc_all[-1]),
        ratio_bound=float(np.max(ratios)),
    )
    report = log_convexity_report(seq)
    if not report.holds:
        raise ConvergenceError(
            f"moment optimizer failure: log-convexity violated by {report.worst_violation:.3e} "
            f"at k={report.worst_k}")
    return seq


def dc_partial_sum(seq: QASequence, K: int) -> float:
    """S_K = sum_{k=0}^{K-1} M_k / M_{k+1}, the ratio series partial sum."""
    if not (isinstance(K, (int, np.integer)) and 1 <= K <= seq.k_max + 1):
        raise ValidationError(f"K must be an integer in [1, {seq.k_max + 1}], got {K}")
    logs = np.array(seq.log_moments + (seq.tail_log_moment,))
    return float(np.sum(np.exp(logs[:K] - logs[1:K + 1])))


@dataclass(frozen=True)
class ConvexityReport:
    holds: bool
    worst_violation: float
    worst_k: int


def log_convexity_report(seq: QASequence) -> ConvexityReport:
    """Check log M_k <= (log M_{k-1} + log M_{k+1}) / 2 for 1 <= k <= k_max.

    The violation at k is log M_k minus the neighbor average (positive means
    the sequence bulges above its chords); tolerances are relative to the
    magnitude of log M_k so huge sequences are not judged at absolute 1e-12.
    """
    logs = np.array(seq.log_moments + (seq.tail_log_moment,))
    mid = logs[1:-1]
    viol = mid - 0.5 * (logs[:-2] + logs[2:])
    tol = 1e-9 * np.abs(mid) + 1e-12
    slack = viol - tol
    worst = int(np.argmax(slack))
    return ConvexityReport(
        holds=bool(np.all(slack <= 0.0)),
        worst_violation=float(viol[worst]),
        worst_k=worst + 1,
    )


def integral_test(symbol: MultiplierSymbol, t_max: float) -> float:
    """Partial integral of F(t) / (1 + t^2) over [0, t_max]: the 24-node Gauss-Legendre rule
    on both halves of each panel of [0, 1] graded by halves to 2^-40, the decades beyond and
    a table's node radii (its kinks). A panel whose value is not finite or misses the rule on
    the whole panel by more than 1e-6 (1 + |value|) raises IntegrationError."""
    t_max = float(t_max)
    if not (np.isfinite(t_max) and t_max > 0):
        raise ValidationError(f"t_max must be positive and finite, got {t_max}")
    nodes = symbol._nodes[0] if symbol.family == "custom" else ()
    cuts = np.concatenate([[0.0], np.ldexp(1.0, np.arange(-40, 0)), 10.0 ** np.arange(309), nodes])
    edges = np.unique(np.append(cuts[cuts < t_max], t_max))
    a, b = edges[:-1], edges[1:]
    lo, hi = np.concatenate([a, a, mid := a + 0.5 * (b - a)]), np.concatenate([b, mid, b])
    x, w = np.polynomial.legendre.leggauss(24)
    t = lo[:, None] + (hi - lo)[:, None] * (0.5 + 0.5 * x)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflowing F fails the gate
        # (F / h) / h with h = hypot(1, t): 1 + t^2 overflows from t = 1.3e154 on
        f = symbol.eval(t) / (h := np.hypot(1.0, t)) / h
        whole, left, right = (0.5 * (hi - lo) * (f @ w)).reshape(3, -1)
        value = left + right
        err = np.abs(value - whole)
        i = np.argmin(ok := err <= 1e-6 * (1.0 + np.abs(value)))  # the first failing panel, if any
    if not ok[i]:
        why = (f"halves and whole panel differ by {err[i]:.3e}" if np.isfinite(err[i])
               else "F(t) / (1 + t^2) is not finite there")
        raise IntegrationError(f"quadrature failed on [{a[i]}, {b[i]}]: {why}", step=float(a[i]))
    return float(value.sum())


def scaling_inequality_check(symbol: MultiplierSymbol, T: float, p: float, k) -> tuple:
    """Compare log M^{TF}_k against (1/p - T) inf F + (1/p) log M^F_{kp}.

    Returns (lhs, rhs, holds); equality is attained when T = 1/p and F is
    scale-homogeneous on the log axis, which the tests pin down on F(r) = r.
    """
    p = float(p)
    if not (np.isfinite(p) and p > 0):
        raise ValidationError(f"p must be positive and finite, got {p}")
    T = float(T)
    if not (np.isfinite(T) and T >= 1.0 / p):
        raise ValidationError(f"need T >= 1/p (got T={T}, 1/p={1.0 / p})")
    k = _check_k(k)
    if k <= 0:
        raise ValidationError("k must be positive for the scaling comparison")
    lhs = log_moment(symbol, k, scale=T)[0]
    base = log_moment(symbol, k * p, scale=1.0)[0]
    rhs = (1.0 / p - T) * inf_F(symbol).value + base / p
    holds = lhs <= rhs + 1e-9 * (1.0 + abs(rhs))
    return lhs, rhs, bool(holds)


def _depth_symbol(p, k) -> tuple:
    """(F_p, p, k) for the depth bounds, which are asymptotic in k."""
    symbol = iterated(p)  # validates the depth
    k = _check_k(k)
    if k < _K_FLOOR:
        raise ValidationError(f"bound is asymptotic: need k >= {_K_FLOOR}, got {k:g}")
    return symbol, symbol.params[0], k


def tk_bound_check(p: int, k) -> tuple:
    """Solve t F_p'(t) = k for the symbol F_p = r / phi_p(r), check t_k <= 2 k phi_p(k).

    The derivative is taken by central differences on the public evaluation,
    h = max(1e-6 t, 1e-6); returns (t_k, bound, holds).
    """
    symbol, p, k = _depth_symbol(p, k)

    def psi(t):
        h = max(1e-6 * t, 1e-6)
        return t * (symbol.eval(t + h) - symbol.eval(max(t - h, 0.0))) / (2.0 * h)

    lo, hi = _bracket_root(lambda t: psi(t) - k, 1.0, 2.0, _R_CAP, f"t F'(t) = {k:g}")
    t_k = 0.5 * (lo + hi)
    bound = 2.0 * k * float(IteratedLogAux(p).phi(k))
    return t_k, bound, bool(t_k <= bound * (1.0 + 1e-9))


def ratio_lower_bound_check(p: int, k) -> bool:
    """Check M_{k-1} / M_k >= 1 / (2 k phi_p(k)) for F_p = r / phi_p(r)."""
    symbol, p, k = _depth_symbol(p, k)
    logs, _ = _moment_batch(symbol, np.array([k - 1.0, k]), 1.0)
    ratio = math.exp(logs[0] - logs[1])
    bound = 1.0 / (2.0 * k * float(IteratedLogAux(p).phi(k)))
    return bool(ratio >= bound * (1.0 - 1e-9))


def write_moments_csv(seq: QASequence, path) -> str:
    """Rows k = 0..k_max with the ratio M_k/M_{k+1} and the running ratio sum."""
    logs = np.array(seq.log_moments + (seq.tail_log_moment,))
    ratios = np.exp(logs[:-1] - logs[1:])
    partial = np.cumsum(ratios)
    return _write_csv(path, "k,log_moment,argmax,ratio,dc_partial_sum",
                      zip(range(seq.k_max + 1), seq.log_moments,
                          seq.argmax_locations, ratios, partial))
