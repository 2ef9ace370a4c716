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
band Gram matrix, which is block diagonal over the Bloch fibers of a
periodic support (see _fibers). The spectral constant comes from the fiber
blocks (for a support with no period, one real block: see _real_form),
and the polynomial and the two half-multipliers fold into one block per
fiber, so a step is one batched matrix product; when the blocks would be too
large the four stages go through the FFT, with no band matrix at all.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, NumericalError, ValidationError
from .grid import (Grid, SpectralField, _check_positive, _check_times,
                   _symbol_values, _write_csv, apply_semigroup,
                   ball_multiplier, from_coefficients, semigroup_multiplier,
                   to_coefficients)
from .symbols import MultiplierSymbol, _bracket_root, alpha_R as tail_inf
from .thick import SupportMask

_DT_SAFETY = 0.1  # dt_max = _DT_SAFETY / lam keeps the 4-stage update stable
# Up to this many entries in the stack of fiber blocks (N n for one fiber) a
# step is one batched product; beyond it the four-FFT-pair step is faster.
# One fiber, fold / matrix-free, us per step (2-core x86, 1 BLAS thread):
#   N n    N = 1024     N = 64^2      N = 128^2
#   2^18   202 / 188    241 / 516     354 / 1578
#   2^19   390 / 189    464 / 455     592 / 1914
#   2^20   780 / 215    854 / 719     909 / 2155
#   2^21       -       1561 / 550    1564 / 1775
# The crossover moves with N (2^18 to above 2^21); 2^19 keeps either loss
# under 2.5x on these grids.
_DENSE_STEP_MAX = 2 ** 19
_RECORD_BLOCK = 2 ** 16  # complex entries (1 MB) of states per record pass
_DUHAMEL_STACK = 2 ** 12  # complex entries (64 kB) per stack of Duhamel snapshots
# widest dense block of the eigensolve; at the cap, on one core, 0.9 s for the
# real block of a support with no period and 3.0 s for a complex fiber block
_BLOCK_MAX = 2048


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
        _check_positive(R=self.R)
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
    _check_positive(R=R)
    target = 2.0 * math.log(c_emp)

    def g(c):
        return math.log(c) + c * R - target

    if g(1.0) >= 0:
        return 1.0
    return _bracket_root(g, 1.0, 2.0, math.inf, "C e^(CR) = c_emp^2")[1]


# ---------------------------------------------------------------------------
# Band machinery. Coefficient arrays are plain FFT outputs; scaling constants
# cancel in every ratio we form, and ||f||^2 = sum |c|^2 / box_measure.


def _band_indices(grid: Grid, R: float) -> np.ndarray:
    return np.flatnonzero(grid.rho.ravel() <= R)


def _fibers(mask: SupportMask, points: np.ndarray) -> tuple:
    """The flat lattice indices points grouped by the Bloch fibers of mask.

    With p the mask's period per axis and M = N / p, the mask's DFT lives on
    multiples of M, so the mask form couples mode k only to k' = k (mod M):
    one fiber of p^dim modes per residue. Returns the points sorted stably
    by fiber, the number of them in each fiber and M.
    """
    m = tuple(n // p for n, p in zip(mask.grid.shape, mask.periods))
    k = np.unravel_index(points, mask.grid.shape)
    fiber = np.ravel_multi_index([a % r for a, r in zip(k, m)], m)
    return (points[np.argsort(fiber, kind="stable")],
            np.bincount(fiber, minlength=math.prod(m)), m)


def _fiber_form(fhat: np.ndarray, rows: np.ndarray, cols: np.ndarray):
    """Mask-form blocks T[f, a, b] = fhat[k_rows[f, a] - k_cols[f, b]], fhat
    being fftn(frac) / N^dim. Gathering a column at a time, into contiguous
    rows of the transpose, keeps the index arrays to one column."""
    kr = np.unravel_index(rows, fhat.shape)
    kc = [c.T[..., None] for c in np.unravel_index(cols, fhat.shape)]
    out = np.empty(cols.shape + rows.shape[-1:], dtype=complex)
    for b in range(cols.shape[1]):  # negative differences index from the end
        out[:, b] = fhat[tuple(r - c[b] for r, c in zip(kr, kc))]
    return out.transpose(0, 2, 1)


def _real_form(fhat: np.ndarray, band: np.ndarray) -> np.ndarray:
    """The band Gram of one fiber, W^H G W, in the real basis cos(k.x),
    sin(k.x); the unitary W keeps the spectrum.

    The band is symmetric under k -> -k. Take as representatives p, q its
    fixed modes (2k = 0) and then one mode of each pair {k, -k}; W has
    columns e_k (fixed) and (e_k + e_-k)/sqrt2, i (e_k - e_-k)/sqrt2 (pairs).
    With A = fhat[k_p - k_q], B = fhat[k_p + k_q] and D = diag(w), w being
    1/sqrt2 on fixed modes and 1 on pairs, the block is D [[Re A + Re B,
    (Im B - Im A)[:, pairs]], [its transpose, (Re A - Re B)[pairs, pairs]]] D.
    Real cell fractions make fhat Hermitian, so Re A is symmetric; it is
    made so to the last bit, and the block is exactly symmetric.
    """
    shape = fhat.shape
    k = np.unravel_index(band, shape)
    mirror = np.ravel_multi_index([-a % n for a, n in zip(k, shape)], shape)
    fixed = mirror == band
    reps = np.concatenate((band[fixed], band[mirror > band]))
    nf, m = np.count_nonzero(fixed), len(reps)
    kr = np.unravel_index(reps, shape)  # below, indices in (-n, n) wrap from the end
    a = fhat[tuple(x[:, None] - x for x in kr)]
    b = fhat[tuple(x[:, None] + (x - n) for x, n in zip(kr, shape))]
    ra = 0.5 * (a.real + a.real.T)
    out = np.empty((2 * m - nf,) * 2)
    out[:m, :m] = ra + b.real
    out[m:, :m] = (b.imag - a.imag)[:, nf:].T
    out[:m, m:] = out[m:, :m].T
    out[m:, m:] = (ra - b.real)[nf:, nf:]
    out[:nf] *= math.sqrt(0.5)
    out[:, :nf] *= math.sqrt(0.5)
    return out


def _mask_form(frac: np.ndarray, c: np.ndarray) -> np.ndarray:
    """1_omega (the cell fractions) on a coefficient array, or on each of a
    stack of them (leading axes): one FFT pair. Passing shape and axes keeps
    a lone array at the plain transform's per-call cost."""
    axes = tuple(range(c.ndim - frac.ndim, c.ndim))
    return np.fft.fftn(frac * np.fft.ifftn(c, frac.shape, axes), frac.shape, axes)


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


def estimate_spectral_constant(mask: SupportMask, R: float,
                               seed: int = 0) -> float:
    """Best constant in ||f|| <= C ||f||_omega over f with spectrum in B(0, R).

    Works on the band Gram matrix (the mask quadratic form compressed to
    the <= R frequency lattice, which quotients out the zero modes of
    K_R 1_omega K_R) and returns 1/sqrt(sigma_min) from dense eigvalsh of
    its Bloch fiber blocks, exact up to rounding. A support with no period
    is one fiber; its cell fractions are real, so the block is unitarily
    similar to a real symmetric one in the basis cos(k.x), sin(k.x)
    (_real_form): the same eigenvalues from a 3-4x cheaper eigensolve.
    The eigensolve is direct, so seed has no effect; it is still accepted
    because the benchmark workloads pass seed=0.
    """
    if mask.total_measure <= 0:
        raise ValidationError("support has measure zero; no spectral constant")
    grid = mask.grid
    if not (0 < R <= grid.xi_max):
        raise ValidationError(
            f"R must lie in (0, pi N / extent] = (0, {grid.xi_max}], got {R}")
    frac = mask.cell_fraction
    band, counts, residues = _fibers(mask, _band_indices(grid, R))
    worst, nfib = int(np.argmax(counts)), len(counts)
    n, b, cells = len(band), int(counts[worst]), int(np.count_nonzero(frac))
    if b > cells // nfib:  # a fiber block has rank <= cells of one period
        r = tuple(int(i) for i in np.unravel_index(worst, residues))
        where = (f", {b} of them in fiber r = {r} of {nfib} against "
                 f"{cells // nfib} cells per period," if nfib > 1 else "")
        raise ConvergenceError(
            f"the band below R = {R} holds {n} modes{where} but the support "
            f"covers only {cells} grid cells, so the band Gram matrix is "
            "rank-deficient and no finite constant exists at this resolution "
            "(refine the grid or lower R)")
    if b > _BLOCK_MAX:
        raise ValidationError(
            f"the widest Bloch fiber of the band below R = {R} holds {b} modes, "
            f"over the block budget of {_BLOCK_MAX} modes of the dense "
            "spectral-constant eigensolve (lower R or coarsen the grid)")
    fhat, start = np.fft.fftn(frac) / frac.size, np.cumsum(counts) - counts
    lo, hi = np.inf, 0.0
    for s in np.unique(counts[counts > 0]):
        modes = band[start[counts == s, None] + np.arange(s)]
        ev = np.linalg.eigvalsh(_real_form(fhat, band)[None] if nfib == 1
                                else _fiber_form(fhat, modes, modes))
        lo, hi = min(lo, ev[:, 0].min()), max(hi, ev[:, -1].max())
    if lo <= n * np.finfo(float).eps * hi:
        raise ConvergenceError(
            "band Gram matrix is numerically singular on this support "
            f"(eigenvalues {lo:.3e} to {hi:.3e})")
    return 1.0 / math.sqrt(lo)


def lyapunov(f: SpectralField, cfg: FeedbackConfig) -> float:
    """V(f) = mu ||K_R f||^2 + ||(1 - K_R) f||^2."""
    c = to_coefficients(f)
    total = float(np.vdot(c, c).real) / f.grid.box_measure
    low = c.reshape(-1)[_band_indices(f.grid, cfg.R)]
    low_sq = float(np.vdot(low, low).real) / f.grid.box_measure
    return cfg.mu * low_sq + (total - low_sq)


class _Stepper:
    """Strang steps on raw FFT coefficient arrays.

    half-multiplier, then c += 1_omega K_R Q gather(c), then
    half-multiplier again. Q is the degree-4 stability polynomial
    sum_{j=1..4} (-dt lam)^j / j! A^{j-1} of the band Gram A, which is exactly
    what four explicit stages produce for this linear bounded part. With the
    adjoint order the injection reads the masked field and writes the band.

    If the stack of fiber blocks (fibers x modes per fiber x widest fiber
    band) has at most _DENSE_STEP_MAX entries, a step is one batched product
    on the state in fiber layout (see _fibers): per fiber c <- e_full c +
    P c_band with P = E_half T[:, band] Q E_half,band padded to the widest
    band, or c_band += P^H c in the adjoint order. Larger stacks apply Q by
    Horner with A applied through the FFT: four FFT pairs per step on the
    state in lattice order. band lists the K_R band's flat positions in the
    stepper's layout. advance writes each step into the next row of a block,
    so a step allocates and copies nothing; the multipliers e_full and
    e_half are stored complex, so applying them casts nothing either.
    """

    def __init__(self, grid: Grid, symbol: MultiplierSymbol, mask: SupportMask,
                 cfg: FeedbackConfig | None, dt: float,
                 adjoint_order: bool = False):
        self.lam = 0.0 if cfg is None else cfg.lam
        self.adjoint = bool(adjoint_order)
        self.shape = grid.shape
        self.order = np.arange(math.prod(grid.shape)).reshape(grid.shape)
        self.op, self.band = None, np.arange(0)
        if self.lam > 0:
            if dt > cfg.dt_max * (1.0 + 1e-12):
                raise ValidationError(
                    f"dt = {dt} exceeds dt_max = {cfg.dt_max} for lam = {cfg.lam}")
            e_half = semigroup_multiplier(grid, symbol, 0.5 * dt)
            self.frac = frac = mask.cell_fraction
            self.coeffs = np.cumprod([-dt * self.lam / j for j in range(1, 5)])
            # the lattice, band modes first, grouped stably by fiber
            order, _, m = _fibers(mask, np.argsort(grid.rho.ravel() > cfg.R,
                                                   kind="stable"))
            order = order.reshape(math.prod(m), -1)
            counts = np.count_nonzero(grid.rho.ravel()[order] <= cfg.R, axis=1)
            b = int(counts.max())
            if order.size * b <= _DENSE_STEP_MAX:
                self.order, points = order, order.shape[1]
                self.band = np.flatnonzero(np.arange(points) < counts[:, None])
                t = _fiber_form(np.fft.fftn(frac) / frac.size, order, order[:, :b])
                t *= (np.arange(b) < counts[:, None])[:, None, :]
                e = e_half.reshape(-1)[order]
                self.e_full = (e * e).astype(complex)
                q = _stages(np.eye(b), lambda w: t[:, :b] @ w, self.coeffs)
                # t's padding columns are zero, so P's are exactly zero
                p = e[:, :, None] * (t @ q) * e[:, None, :b]
                # a step multiplies row vectors from the left (c^T P^T, or
                # c^T conj(P) = (P^H c)^T), which costs the least once the
                # state decays to subnormal numbers
                if self.adjoint:
                    self.op = p.conj()
                    self.reads, self.writes = slice(None), slice(b)
                else:
                    self.op = np.ascontiguousarray(p.transpose(0, 2, 1))
                    self.reads, self.writes = slice(b), slice(None)
                self.u = np.empty((len(order), 1, self.op.shape[-1]), dtype=complex)
            else:
                self.band = idx = _band_indices(grid, cfg.R)
                self.e_half = e_half.astype(complex)
                self.z = z = np.zeros(grid.shape, dtype=complex)
                self.gram = lambda w: _apply_band_gram(grid, frac, idx, w, z)
        else:
            self.e_full = semigroup_multiplier(grid, symbol, dt).astype(complex)

    def enter(self, c: np.ndarray) -> np.ndarray:
        """A copy of the lattice-order array c in the stepper's layout."""
        return c.reshape(-1)[self.order]

    def leave(self, c: np.ndarray) -> np.ndarray:
        """A copy of the state c in lattice order, shaped like the grid."""
        out = np.empty(c.size, dtype=complex)
        out[self.order] = c
        return out.reshape(self.shape)

    def advance(self, rows: np.ndarray) -> None:
        """Fill rows[1:], each row one step after the row before it."""
        steps = zip(rows, rows[1:])
        if self.lam == 0.0:
            for prev, c in steps:
                np.multiply(prev, self.e_full, out=c)
        elif self.op is not None:  # the fold reads and writes views of rows
            op, e, u, u0 = self.op, self.e_full, self.u, self.u[:, 0]
            for x, (prev, c), w in zip(rows[..., None, self.reads], steps,
                                       rows[1:, ..., self.writes]):
                np.matmul(x, op, out=u)
                np.multiply(prev, e, out=c)
                w += u0
        else:
            for prev, c in steps:
                np.multiply(prev, self.e_half, out=c)
                flat = c.reshape(-1)
                if self.adjoint:
                    v = _mask_form(self.frac, c).reshape(-1)[self.band]
                    flat[self.band] += _stages(v, self.gram, self.coeffs)
                else:
                    self.z.reshape(-1)[self.band] = _stages(
                        flat[self.band], self.gram, self.coeffs)
                    c += _mask_form(self.frac, self.z)
                c *= self.e_half

    def step(self, c: np.ndarray) -> np.ndarray:
        rows = np.array([c, c])
        self.advance(rows)
        c[...] = rows[1]
        return c


def step_closed_loop(f: SpectralField, F: MultiplierSymbol, mask: SupportMask,
                     cfg: FeedbackConfig | None, dt: float,
                     adjoint_order: bool = False) -> SpectralField:
    """Advance one step of d/dt f = -F(|D|) f - lam 1_omega K_R f."""
    _check_positive(dt=dt)
    if cfg is None:
        return apply_semigroup(f, F, dt)
    stepper = _Stepper(f.grid, F, mask, cfg, dt, adjoint_order)
    c = stepper.step(stepper.enter(to_coefficients(f)))
    return from_coefficients(f.grid, stepper.leave(c))


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

    The stepper writes the states into a buffer of _RECORD_BLOCK complex
    entries (one state per row, at least one new state per block). One
    vectorised pass per block records the norms and V and runs the checks,
    whose errors name the first non-finite step or the first step at which
    V rises.
    """
    _check_positive(T=T)
    if not (0 < tail_fraction <= 1):
        raise ValidationError(f"tail_fraction must lie in (0, 1], got {tail_fraction}")
    lam = 0.0 if cfg is None else cfg.lam
    if dt is None:
        dt = min(T / 1000.0, cfg.dt_max) if lam > 0 else T / 1000.0
    _check_positive(dt=dt)
    n_steps = max(1, int(math.ceil(T / dt - 1e-12)))
    dt = T / n_steps
    grid = f0.grid
    stepper = _Stepper(grid, F, mask, cfg, dt, adjoint_order)
    mu = cfg.mu if cfg is not None else 1.0

    # the state stays in the stepper's layout for the whole run; each block
    # of rows starts from the last state of the block before it
    c = stepper.enter(to_coefficients(f0))
    buf = np.empty((min(max(1, _RECORD_BLOCK // c.size), n_steps) + 1,)
                   + c.shape, dtype=complex)
    buf[0] = c
    box = grid.box_measure
    times = np.arange(n_steps + 1) * dt
    norm_sq = np.empty(n_steps + 1)
    low_sq = np.empty(n_steps + 1)
    snaps = [(0.0, stepper.leave(buf[0]))] if snapshot_every > 0 else []
    for k in range(0, n_steps, len(buf) - 1):
        rows = buf[:min(len(buf), n_steps + 1 - k)]  # steps k, k + 1, ...
        flat, end = rows.reshape(len(rows), -1), k + len(rows)
        # a block runs on past a blow-up; the first non-finite step is named
        with np.errstate(over="ignore", invalid="ignore"):
            stepper.advance(rows)
            norm_sq[k:end] = np.vecdot(flat, flat).real / box
        j = k + np.argmin(np.isfinite(norm_sq[k:end]))
        if not np.isfinite(norm_sq[j]):
            raise NumericalError(
                f"state became non-finite at step {j} (t = {times[j]})")
        low = flat.take(stepper.band, axis=1)
        low_sq[k:end] = np.vecdot(low, low).real / box
        v = mu * low_sq[k:end] + (norm_sq[k:end] - low_sq[k:end])
        j = np.argmax(v[1:] > v[:-1] * (1.0 + 1e-8))
        if check_monotone and v[j + 1] > v[j] * (1.0 + 1e-8):
            raise NumericalError(f"Lyapunov functional increased at step "
                                 f"{k + j + 1}: {v[j]} -> {v[j + 1]}")
        snaps += [(float(times[i]), stepper.leave(rows[i - k]))
                  for i in range(k + 1, end) if snapshot_every > 0
                  and (i % snapshot_every == 0 or i == n_steps)]
        buf[0] = rows[-1]

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
                     mask: SupportMask, max_points: int | None = None) -> float:
    """Check the run against e^{-T(A+B)} f0 = e^{-TA} f0 - int_0^T e^{-(T-t)A} B f(t) dt.

    The right side is rebuilt from the stored snapshots (max_points >= 3
    evenly spaced ones if given) with exact multipliers and a trapezoid rule
    over their times; the returned value is the relative coefficient-space
    mismatch. B is the feedback operator lam 1_omega K_R of the run's config
    (none for a free run). F is evaluated on the lattice once, and the
    snapshots go through B in stacks of at most _DUHAMEL_STACK entries.
    """
    if max_points is not None and not (
            isinstance(max_points, (int, np.integer)) and max_points >= 3):
        raise ValidationError(
            f"max_points must be an integer >= 3, got {max_points!r}")
    cfg = result.config
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
    grid, T = traj.grid, ts[-1]
    _check_times(T - ts)
    vals = _symbol_values(grid, F)
    c0, cT = snaps[0][1], snaps[-1][1]
    rhs = np.exp(-T * vals) * c0
    lam = 0.0 if cfg is None else cfg.lam
    if lam > 0:
        band, frac = ball_multiplier(grid, cfg.R), mask.cell_fraction
        ends = np.concatenate((ts[:1], ts, ts[-1:]))
        w = 0.5 * (ends[2:] - ends[:-2])
        acc = np.zeros(c0.size, dtype=complex)
        rows = max(1, _DUHAMEL_STACK // c0.size)
        for i in range(0, len(ts), rows):
            ck = lam * np.stack([c for _, c in snaps[i:i + rows]])
            # 1_omega K_R, or K_R 1_omega in the adjoint order
            b = (band * _mask_form(frac, ck) if result.adjoint_order
                 else _mask_form(frac, ck * band))
            e = np.exp(-np.multiply.outer(T - ts[i:i + rows], vals.ravel()))
            # one snapshot at a time, so the sum is a plain loop's to the bit
            for term in w[i:i + rows, None] * e * b.reshape(len(b), -1):
                acc += term
        rhs -= acc.reshape(grid.shape)
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
    _write_csv(path, "t,norm,lyapunov,low_norm,high_norm",
               ((traj.times[i], traj.norms[i], traj.lyapunov[i],
                 traj.low_norms[i], traj.high_norms[i]) for i in idx))
