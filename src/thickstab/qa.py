"""Bernstein moment sequences M_k = sup_r r^k e^{-scale F(r)} and their tests.

Everything runs on the log scale: log M_k = sup_s [k s - scale F(e^s)], a
supremum whose maximizer moves monotonically to the right as k grows. The
batch optimizer exploits that with a shared coarse grid followed by a
vectorized golden-section refinement, so ten-thousand-moment sequences cost
fractions of a second.

The module also hosts the sequence diagnostics used throughout: divergence of
the ratio series sum M_k / M_{k+1} (the quasi-analyticity signature),
log-convexity, the partial integrals of F(t)/(1+t^2), the moment scaling
inequality between scales T and 1, and the slowly-varying bounds for symbols
r / phi_p(r) built from iterated logarithms.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, IntegrationError, MomentDivergenceError, ValidationError
from .grid import _write_csv
from .symbols import IteratedLogAux, MultiplierSymbol, inf_F, iterated

_S_LO = -50.0
_GRID_POINTS = 4096  # coarse log-radius grid that seeds the golden search
_K_FLOOR = 100.0  # smallest k at which the asymptotic depth bounds are tested
_GOLDEN_ITERS = 80
_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


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
    s_hi = math.log(symbol.r_cap)
    s = np.linspace(_S_LO, s_hi, _GRID_POINTS)
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

    lo = s[np.maximum(idx - 1, 0)]
    hi = s[idx + 1]
    c = hi - _INVPHI * (hi - lo)
    d = lo + _INVPHI * (hi - lo)
    fc, fd = h(c), h(d)
    for _ in range(_GOLDEN_ITERS):
        left = fc >= fd  # maximum sits in [lo, d]; otherwise in [c, hi]
        hi = np.where(left, d, hi)
        lo = np.where(left, lo, c)
        new_c = hi - _INVPHI * (hi - lo)
        new_d = lo + _INVPHI * (hi - lo)
        probe = np.where(left, new_c, new_d)
        f_probe = h(probe)
        c, d, fc, fd = (
            np.where(left, new_c, d),
            np.where(left, c, new_d),
            np.where(left, f_probe, fd),
            np.where(left, fc, f_probe),
        )
    s_star = np.where(fc >= fd, c, d)
    vals = np.maximum(fc, fd)
    grid_vals = ks * s[idx] - fe[idx]
    keep_grid = grid_vals > vals
    vals = np.where(keep_grid, grid_vals, vals)
    s_star = np.where(keep_grid, s[idx], s_star)
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
    M_k / M_{k+1} is defined. ratio_bound is the largest such ratio.
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
    """Partial integral of F(t) / (1 + t^2) over [0, t_max], by decade."""
    from scipy.integrate import quad  # the only SciPy use: keep it off import
    t_max = float(t_max)
    if not (np.isfinite(t_max) and t_max > 0):
        raise ValidationError(f"t_max must be positive and finite, got {t_max}")
    edges = [0.0]
    e = 1.0
    while e < t_max:
        edges.append(e)
        e *= 10.0
    edges.append(t_max)
    total = 0.0
    for a, b in zip(edges, edges[1:]):
        with warnings.catch_warnings():
            # tabulated symbols have kinks at every node; the explicit error
            # gate below is the real accuracy check
            warnings.simplefilter("ignore")
            val, err = quad(lambda t: symbol.eval(t) / (1.0 + t * t), a, b,
                            epsabs=1e-11, epsrel=1e-10, limit=400)
        if err > 1e-6 * (1.0 + abs(val)):
            raise IntegrationError(
                f"quadrature failed on [{a}, {b}]: estimated error {err:.3e}", step=a)
        total += val
    return total


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


def _check_depth_index(p, k):
    if not (isinstance(p, (int, np.integer)) and 1 <= p <= 8):
        raise ValidationError(f"iteration depth p must be an integer in [1, 8], got {p}")
    k = _check_k(k)
    if k < _K_FLOOR:
        raise ValidationError(f"bound is asymptotic: need k >= {_K_FLOOR}, got {k:g}")
    return int(p), k


def tk_bound_check(p: int, k) -> tuple:
    """Solve t F_p'(t) = k for the symbol F_p = r / phi_p(r), check t_k <= 2 k phi_p(k).

    The derivative is taken by central differences on the public evaluation,
    h = max(1e-6 t, 1e-6); returns (t_k, bound, holds).
    """
    p, k = _check_depth_index(p, k)
    symbol = iterated(p)

    def psi(t):
        h = max(1e-6 * t, 1e-6)
        return t * (symbol.eval(t + h) - symbol.eval(max(t - h, 0.0))) / (2.0 * h)

    lo, hi = 1.0, 2.0
    expansions = 0
    while psi(hi) < k:
        lo, hi = hi, hi * 2.0
        expansions += 1
        if expansions > 200 or hi > symbol.r_cap:
            raise ConvergenceError(
                f"bisection bracket failure for t F'(t) = {k:g}: scanned [1, {hi:.3g}]")
    for _ in range(200):
        midt = 0.5 * (lo + hi)
        if psi(midt) < k:
            lo = midt
        else:
            hi = midt
        if hi - lo <= 1e-12 * hi:
            break
    t_k = 0.5 * (lo + hi)
    bound = 2.0 * k * float(IteratedLogAux(p).phi(k))
    return t_k, bound, bool(t_k <= bound * (1.0 + 1e-9))


def ratio_lower_bound_check(p: int, k) -> bool:
    """Check M_{k-1} / M_k >= 1 / (2 k phi_p(k)) for F_p = r / phi_p(r)."""
    p, k = _check_depth_index(p, k)
    symbol = iterated(p)
    logs, _ = _moment_batch(symbol, np.array([k - 1.0, k]), 1.0)
    ratio = math.exp(logs[0] - logs[1])
    bound = 1.0 / (2.0 * k * float(IteratedLogAux(p).phi(k)))
    return bool(ratio >= bound * (1.0 - 1e-9))


def write_moments_csv(seq: QASequence, path) -> None:
    """Rows k = 0..k_max with the ratio M_k/M_{k+1} and the running ratio sum."""
    logs = np.array(seq.log_moments + (seq.tail_log_moment,))
    ratios = np.exp(logs[:-1] - logs[1:])
    partial = np.cumsum(ratios)
    _write_csv(path, "k,log_moment,argmax,ratio,dc_partial_sum",
               zip(range(seq.k_max + 1), seq.log_moments,
                   seq.argmax_locations, ratios, partial))
