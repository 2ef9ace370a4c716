"""Closed-loop damping of diffusive multiplier equations from a thick support.

The flow is d/dt f = -F(|D|) f - lam 1_omega K_R f, with K_R the sharp
frequency cutoff at radius R. Gains come from the tail infimum of the symbol:
with alpha_R = inf_{r>=R} F and alpha_tilde = alpha_R - inf F, the design
lam = C e^{CR} alpha_tilde and mu = 2 C^2 e^{2CR} makes the functional
V = mu ||K_R f||^2 + ||(1-K_R) f||^2 decay at rate alpha_tilde whenever C is
at least the spectral constant of the support, giving

    ||f(t)|| <= sqrt(2) C e^{CR} e^{-(alpha_R + inf F) t / 2} ||f(0)||.

Time stepping is Strang splitting: exact multiplier half-steps around a
classical 4-stage update of the bounded feedback part. Because the feedback
sees only the K_R band, its 4-stage update is a degree-4 polynomial in the
band Gram matrix. For small N * n that polynomial and the two
half-multipliers fold into one precomputed matrix, so a step is one
matrix-vector product; larger bands apply the four stages through the FFT,
with no band matrix at all.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, NumericalError, ValidationError
from .grid import (Grid, SpectralField, apply_semigroup, ball_multiplier,
                   from_coefficients, semigroup_multiplier, to_coefficients)
from .symbols import MultiplierSymbol, alpha_R as tail_inf
from .thick import SupportMask

_DT_SAFETY = 0.1  # dt_max = _DT_SAFETY / lam keeps the 4-stage update stable
# Up to this many entries N * n a closed-loop step is one dense matrix-vector
# product; beyond it the four-FFT-pair step is faster. Dense against
# matrix-free, us per step (2-core x86, 1 BLAS thread, forward order):
#   N * n     N = 1024      N = 64^2      N = 128^2
#   2^16      23 / 164      78 / 582     125 / 2329
#   2^17      80 / 192     159 / 553     227 / 2001
#   2^18     181 / 177     226 / 520     357 / 1559
#   2^19     363 / 187     416 / 580     596 / 1491
#   2^20     623 / 170     712 / 393     866 / 1584
#   2^21         -        1419 / 409    1641 / 1970
#   2^22         -        2833 / 471    3097 / 1537
# The crossover moves from about 2^18 (N = 1024) to 2^19.5 (N = 64^2);
# 2^19 keeps the loss on either side of it under 1.5x for those grids.
_DENSE_STEP_MAX = 2 ** 19


@dataclass(frozen=True)
class FeedbackConfig:
    """Gain package for one (symbol, R, C) choice."""

    R: float
    C: float
    inf_F: float
    alpha_R: float
    alpha_tilde: float
    lam: float
    mu: float
    predicted_rate: float

    def __post_init__(self):
        if not (np.isfinite(self.C) and self.C >= 1.0):
            raise ValidationError(f"C must be >= 1, got {self.C}")
        if not (np.isfinite(self.R) and self.R > 0):
            raise ValidationError(f"R must be positive, got {self.R}")
        if not (self.alpha_tilde > 0):
            raise ValidationError(
                f"alpha_tilde must be positive, got {self.alpha_tilde}")
        if not (self.lam > 0 and self.mu >= 2.0):
            raise ValidationError("gains out of range: need lam > 0, mu >= 2")

    @property
    def prefactor(self) -> float:
        """Norm-decay prefactor sqrt(2) C e^{CR}, always >= sqrt(2)."""
        return math.sqrt(2.0) * self.C * math.exp(self.C * self.R)

    @property
    def dt_max(self) -> float:
        return _DT_SAFETY / self.lam

    def to_manifest(self) -> dict:
        return {
            "R": self.R, "C": self.C, "inf_F": self.inf_F,
            "alpha_R": self.alpha_R, "alpha_tilde": self.alpha_tilde,
            "lambda": self.lam, "mu": self.mu,
            "predicted_rate": self.predicted_rate,
        }


def design_feedback(F: MultiplierSymbol, R: float, C: float = 1.0) -> FeedbackConfig:
    """Derive (lam, mu, predicted_rate) from the symbol's tail behavior at R."""
    if not (np.isfinite(C) and C >= 1.0):
        raise ValidationError(f"C must be >= 1, got {C}")
    a_R = tail_inf(F, R).value
    base = F.inf_value
    a_tilde = a_R - base
    if a_tilde <= 0:
        raise ValidationError(
            f"stabilization needs inf_{{r>=R}} F > inf F; at R = {R} the tail "
            f"infimum {a_R} does not exceed inf F = {base} (R is below the "
            "threshold where the symbol starts to grow)")
    ecr = math.exp(C * R)
    return FeedbackConfig(
        R=float(R), C=float(C), inf_F=base, alpha_R=a_R, alpha_tilde=a_tilde,
        lam=C * ecr * a_tilde, mu=2.0 * C * C * ecr * ecr,
        predicted_rate=0.5 * (a_R + base),
    )


def calibrate_constant(c_emp: float, R: float) -> float:
    """Smallest C >= 1 with C e^{CR} >= c_emp^2.

    Feeding the result to design_feedback makes the V-decay chain hold with
    the measured spectral constant of the support in place of the abstract
    one, at the least gain this family of designs allows.
    """
    if not (np.isfinite(c_emp) and c_emp > 0):
        raise ValidationError(f"spectral constant must be positive, got {c_emp}")
    if not (np.isfinite(R) and R > 0):
        raise ValidationError(f"R must be positive, got {R}")
    target = 2.0 * math.log(c_emp)

    def g(c):
        return math.log(c) + c * R - target

    if g(1.0) >= 0:
        return 1.0
    lo, hi = 1.0, 2.0
    while g(hi) < 0:
        hi *= 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if g(mid) < 0:
            lo = mid
        else:
            hi = mid
    return hi


# ---------------------------------------------------------------------------
# Band machinery. Coefficient arrays are plain FFT outputs; scaling constants
# cancel in every ratio we form, and ||f||^2 = sum |c|^2 / box_measure.


def _band_indices(grid: Grid, R: float) -> np.ndarray:
    return np.flatnonzero(grid.rho.ravel() <= R)


def _gram_columns(grid: Grid, frac: np.ndarray, idx: np.ndarray,
                  rows: np.ndarray | None = None) -> np.ndarray:
    """Band columns of the mask form c -> fftn(frac * ifftn(c)).

    Entry (m, b) is frac_hat(k_m - k_b) / N^dim, frac_hat being the plain
    DFT of the cell fractions, so one transform of the mask fills the
    matrix; the rows m run over every lattice point unless given. Gathering
    one column at a time keeps the index arrays to one column; a one-shot
    gather would hold index arrays as large as the matrix.
    """
    fhat = np.fft.fftn(frac) / frac.size
    k_rows = np.unravel_index(np.arange(frac.size) if rows is None else rows,
                              grid.shape)
    k_cols = np.unravel_index(idx, grid.shape)
    out = np.empty((len(idx), k_rows[0].size), dtype=complex)
    for b in range(len(idx)):
        out[b] = fhat[tuple((kr - kc[b]) % grid.points
                            for kr, kc in zip(k_rows, k_cols))]
    return out.T


def _band_gram(grid: Grid, frac: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """Dense matrix of w -> gather(fftn(frac * ifftn(embed(w)))) on the band:
    the band rows of _gram_columns."""
    n = len(idx)
    if n > 2048:
        raise ValidationError(
            f"frequency band below R holds {n} modes; the dense band Gram "
            "of the spectral-constant eigensolve is capped at 2048 (lower R "
            "or coarsen the grid)")
    return _gram_columns(grid, frac, idx, rows=idx)


def _mask_form(frac: np.ndarray, c: np.ndarray) -> np.ndarray:
    """1_omega (the cell fractions) on a coefficient array: one FFT pair."""
    return np.fft.fftn(frac * np.fft.ifftn(c))


def _apply_band_gram(grid: Grid, frac: np.ndarray, idx: np.ndarray,
                     w: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Band Gram times w by one FFT pair; z must be zero off the band."""
    z.reshape(-1)[idx] = w
    return _mask_form(frac, z).reshape(-1)[idx]


def _stages(v: np.ndarray, apply_gram, coeffs) -> np.ndarray:
    """sum_j coeffs[j] G^j v by Horner, with G applied by apply_gram."""
    out = coeffs[-1] * v
    for a in coeffs[-2::-1]:
        out = apply_gram(out) + a * v
    return out


def estimate_spectral_constant(mask: SupportMask, R: float, trials: int = 4,
                               iterations: int = 200, seed: int = 0,
                               tol: float = 1e-10) -> float:
    """Best constant in ||f|| <= C ||f||_omega over f with spectrum in B(0, R).

    Works on the band Gram matrix (the mask quadratic form compressed to
    the <= R frequency lattice, which quotients out the zero modes of
    K_R 1_omega K_R) and returns 1/sqrt(sigma_min) from a dense eigvalsh,
    exact up to rounding. The eigensolve is direct: trials, iterations,
    seed and tol are accepted so that existing configs stay valid, and have
    no effect.
    """
    if mask.total_measure <= 0:
        raise ValidationError("support has measure zero; no spectral constant")
    grid = mask.grid
    xi_max = grid.xi_max
    if not (0 < R <= xi_max):
        raise ValidationError(
            f"R must lie in (0, pi N / extent] = (0, {xi_max}], got {R}")
    idx = _band_indices(grid, R)
    frac = mask.cell_fraction
    n, cells = len(idx), int(np.count_nonzero(frac))
    if n > cells:
        raise ConvergenceError(
            f"the band below R = {R} holds {n} modes but the support covers "
            f"only {cells} grid cells, so the band Gram matrix is "
            "rank-deficient and no finite constant exists at this resolution "
            "(refine the grid or lower R)")
    ev = np.linalg.eigvalsh(_band_gram(grid, frac, idx))
    if ev[0] <= n * np.finfo(float).eps * ev[-1]:
        raise ConvergenceError(
            "band Gram matrix is numerically singular on this support "
            f"(eigenvalues {ev[0]:.3e} to {ev[-1]:.3e})")
    return 1.0 / math.sqrt(ev[0])


def lyapunov(f: SpectralField, cfg: FeedbackConfig) -> float:
    """V(f) = mu ||K_R f||^2 + ||(1 - K_R) f||^2."""
    c = to_coefficients(f)
    total = float(np.vdot(c, c).real) / f.grid.box_measure
    low = c.reshape(-1)[_band_indices(f.grid, cfg.R)]
    low_sq = float(np.vdot(low, low).real) / f.grid.box_measure
    return cfg.mu * low_sq + (total - low_sq)


class _Stepper:
    """One Strang step on raw FFT coefficient arrays.

    half-multiplier, then c += 1_omega K_R Q gather(c), then
    half-multiplier again. Q is the degree-4 stability polynomial
    sum_{j=1..4} (-dt lam)^j / j! A^{j-1} of the band Gram A, which is exactly
    what four explicit stages produce for this linear bounded part. With the
    adjoint order the injection reads the masked field and writes the band.

    When N * n <= _DENSE_STEP_MAX the whole step is one precomputed matrix:
    c <- e_full c + P c_band with P = E_half G Q E_half,band (N x n), or
    c_band += A c with A = E_half,band Q G^H E_half (n x N) in the adjoint
    order, G being the band columns of the mask form. Larger bands apply Q
    by Horner with A applied through the FFT, so a step is four FFT pairs
    and the set-up holds only arrays of the grid's size.
    """

    def __init__(self, grid: Grid, symbol: MultiplierSymbol, mask: SupportMask,
                 cfg: FeedbackConfig | None, dt: float,
                 adjoint_order: bool = False):
        self.lam = 0.0 if cfg is None else cfg.lam
        self.adjoint = bool(adjoint_order)
        self.op = None
        if self.lam > 0:
            if dt > cfg.dt_max * (1.0 + 1e-12):
                raise ValidationError(
                    f"dt = {dt} exceeds dt_max = {cfg.dt_max} for lam = {cfg.lam}")
            self.e_half = semigroup_multiplier(grid, symbol, 0.5 * dt)
            self.idx = idx = _band_indices(grid, cfg.R)
            self.frac = frac = mask.cell_fraction
            self.coeffs = np.cumprod([-dt * self.lam / j for j in range(1, 5)])
            if frac.size * len(idx) <= _DENSE_STEP_MAX:
                self.e_full = self.e_half * self.e_half
                gram = _band_gram(grid, frac, idx)
                q = _stages(np.eye(len(idx), dtype=complex),
                            lambda w: gram @ w, self.coeffs)
                e = self.e_half.reshape(-1)
                cols = _gram_columns(grid, frac, idx)
                if self.adjoint:
                    self.op = e[idx, None] * (q @ cols.conj().T) * e
                    self.reads, self.writes = slice(None), idx
                else:
                    self.op = e[:, None] * (cols @ q) * e[idx]
                    self.reads, self.writes = idx, slice(None)
            else:
                self.z = z = np.zeros(grid.shape, dtype=complex)
                self.gram = lambda w: _apply_band_gram(grid, frac, idx, w, z)
        else:
            self.e_full = semigroup_multiplier(grid, symbol, dt)

    def step(self, c: np.ndarray) -> np.ndarray:
        flat = c.reshape(-1)
        if self.lam == 0.0:
            c *= self.e_full
        elif self.op is not None:
            u = self.op @ flat[self.reads]
            c *= self.e_full
            flat[self.writes] += u
        else:
            c *= self.e_half
            if self.adjoint:
                v = _mask_form(self.frac, c).reshape(-1)[self.idx]
                flat[self.idx] += _stages(v, self.gram, self.coeffs)
            else:
                self.z.reshape(-1)[self.idx] = _stages(flat[self.idx],
                                                       self.gram, self.coeffs)
                c += _mask_form(self.frac, self.z)
            c *= self.e_half
        return c


def step_closed_loop(f: SpectralField, F: MultiplierSymbol, mask: SupportMask,
                     cfg: FeedbackConfig | None, dt: float,
                     adjoint_order: bool = False) -> SpectralField:
    """Advance one step of d/dt f = -F(|D|) f - lam 1_omega K_R f."""
    if not (np.isfinite(dt) and dt > 0):
        raise ValidationError(f"dt must be positive, got {dt}")
    if cfg is None or cfg.lam == 0.0:
        return apply_semigroup(f, F, dt)
    stepper = _Stepper(f.grid, F, mask, cfg, dt, adjoint_order)
    c = stepper.step(to_coefficients(f))
    return from_coefficients(f.grid, c)


@dataclass(frozen=True)
class Trajectory:
    """Per-step records of a closed-loop run (snapshots hold coefficients)."""

    grid: Grid
    times: np.ndarray
    norms: np.ndarray
    lyapunov: np.ndarray
    low_norms: np.ndarray
    high_norms: np.ndarray
    snapshots: tuple = ()

    def snapshot_field(self, i: int) -> SpectralField:
        t, coef = self.snapshots[i]
        return from_coefficients(self.grid, coef)


@dataclass(frozen=True)
class StabilizationResult:
    trajectory: Trajectory
    fitted_rate: float
    config: FeedbackConfig | None
    dt: float
    adjoint_order: bool = False


def run_stabilization(f0: SpectralField, F: MultiplierSymbol, mask: SupportMask,
                      cfg: FeedbackConfig | None, T: float,
                      dt: float | None = None, snapshot_every: int = 0,
                      tail_fraction: float = 0.5, adjoint_order: bool = False,
                      check_monotone: bool = False) -> StabilizationResult:
    """Integrate to time T, recording norms and V at every step.

    fitted_rate is the least-squares slope of -log ||f(t)|| over the trailing
    tail_fraction of [0, T]. snapshot_every > 0 stores every k-th coefficient
    array (plus the endpoints) for later residual checks. check_monotone
    enforces per-step V decrease; only meaningful when cfg.C is at least the
    spectral constant of the mask, so it is off by default.
    """
    if not (np.isfinite(T) and T > 0):
        raise ValidationError(f"T must be positive, got {T}")
    if not (0 < tail_fraction <= 1):
        raise ValidationError(f"tail_fraction must lie in (0, 1], got {tail_fraction}")
    lam = 0.0 if cfg is None else cfg.lam
    if dt is None:
        dt = min(T / 1000.0, cfg.dt_max) if lam > 0 else T / 1000.0
    if not (np.isfinite(dt) and dt > 0):
        raise ValidationError(f"dt must be positive, got {dt}")
    n_steps = max(1, int(math.ceil(T / dt - 1e-12)))
    dt = T / n_steps
    grid = f0.grid
    stepper = _Stepper(grid, F, mask, cfg, dt, adjoint_order)
    idx = _band_indices(grid, cfg.R) if cfg is not None else None
    mu = cfg.mu if cfg is not None else 1.0

    c = to_coefficients(f0)
    box = grid.box_measure
    times = np.arange(n_steps + 1) * dt
    norm_sq = np.empty(n_steps + 1)
    low_sq = np.empty(n_steps + 1)
    snaps = []

    def record(k):
        flat = c.reshape(-1)
        total = float(np.vdot(flat, flat).real) / box
        if not np.isfinite(total):
            raise NumericalError(
                f"state became non-finite at step {k} (t = {times[k]})")
        norm_sq[k] = total
        if idx is not None:
            band = flat[idx]
            low_sq[k] = float(np.vdot(band, band).real) / box
        else:
            low_sq[k] = 0.0
        if snapshot_every > 0 and (k % snapshot_every == 0 or k == n_steps):
            snaps.append((float(times[k]), c.copy()))

    record(0)
    v_prev = mu * low_sq[0] + (norm_sq[0] - low_sq[0])
    for k in range(1, n_steps + 1):
        stepper.step(c)
        record(k)
        if check_monotone:
            v_now = mu * low_sq[k] + (norm_sq[k] - low_sq[k])
            if v_now > v_prev * (1.0 + 1e-8):
                raise NumericalError(
                    f"Lyapunov functional increased at step {k}: "
                    f"{v_prev} -> {v_now}")
            v_prev = v_now

    high_sq = np.maximum(norm_sq - low_sq, 0.0)
    lyap = mu * low_sq + high_sq
    traj = Trajectory(
        grid=grid, times=times, norms=np.sqrt(norm_sq),
        lyapunov=lyap, low_norms=np.sqrt(low_sq), high_norms=np.sqrt(high_sq),
        snapshots=tuple(snaps),
    )
    tail = times >= (1.0 - tail_fraction) * T - 1e-12 * T
    logs = 0.5 * np.log(np.maximum(norm_sq[tail], 1e-300))
    slope = np.polyfit(times[tail], logs, 1)[0] if tail.sum() >= 2 else 0.0
    return StabilizationResult(trajectory=traj, fitted_rate=float(-slope),
                               config=cfg, dt=dt, adjoint_order=adjoint_order)


def duhamel_residual(result: StabilizationResult, F: MultiplierSymbol,
                     mask: SupportMask, cfg: FeedbackConfig | None = None,
                     max_points: int | None = None) -> float:
    """Check the run against e^{-T(A+B)} f0 = e^{-TA} f0 - int_0^T e^{-(T-t)A} B f(t) dt.

    The right side is rebuilt from the stored snapshots with exact
    multipliers and a trapezoid rule over the snapshot times; the returned
    value is the relative coefficient-space mismatch. B is the feedback
    operator lam 1_omega K_R of the run.
    """
    cfg = result.config if cfg is None else cfg
    traj = result.trajectory
    if len(traj.snapshots) < 3:
        raise ValidationError(
            f"need at least 3 stored snapshots, got {len(traj.snapshots)}")
    snaps = list(traj.snapshots)
    if max_points is not None and len(snaps) > max_points:
        keep = np.unique(np.linspace(0, len(snaps) - 1, max_points).round().astype(int))
        snaps = [snaps[i] for i in keep]
    ts = np.array([s[0] for s in snaps])
    if not (math.isclose(ts[0], traj.times[0]) and math.isclose(ts[-1], traj.times[-1])):
        raise ValidationError("snapshots must span the full run")
    grid = traj.grid
    T = ts[-1]
    c0, cT = snaps[0][1], snaps[-1][1]
    rhs = semigroup_multiplier(grid, F, T) * c0
    lam = 0.0 if cfg is None else cfg.lam
    if lam > 0:
        band, frac = ball_multiplier(grid, cfg.R), mask.cell_fraction
        acc = np.zeros(grid.shape, dtype=complex)
        w = np.empty(len(ts))
        w[0] = 0.5 * (ts[1] - ts[0])
        w[-1] = 0.5 * (ts[-1] - ts[-2])
        w[1:-1] = 0.5 * (ts[2:] - ts[:-2])
        for wi, (t, ck) in zip(w, snaps):
            # 1_omega K_R, or K_R 1_omega in the adjoint order
            b = (band * _mask_form(frac, lam * ck) if result.adjoint_order
                 else _mask_form(frac, lam * ck * band))
            acc += wi * semigroup_multiplier(grid, F, T - t) * b
        rhs -= acc
    num = np.linalg.norm((cT - rhs).ravel())
    den = np.linalg.norm(c0.ravel())
    return float(num / den)


def write_trajectory_csv(result: StabilizationResult, path,
                         stride: int = 1) -> None:
    """One row per recorded step; stride > 1 thins to every k-th row plus
    the final one, for runs long enough that a full dump is unhelpful."""
    if not (isinstance(stride, (int, np.integer)) and stride >= 1):
        raise ValidationError(f"stride must be a positive integer, got {stride}")
    traj = result.trajectory
    n = traj.times.size
    idx = list(range(0, n, stride))
    if idx[-1] != n - 1:
        idx.append(n - 1)
    with open(path, "w", newline="") as fh:
        fh.write("t,norm,lyapunov,low_norm,high_norm\n")
        for i in idx:
            row = (traj.times[i], traj.norms[i], traj.lyapunov[i],
                   traj.low_norms[i], traj.high_norms[i])
            fh.write(",".join(repr(float(v)) for v in row) + "\n")
