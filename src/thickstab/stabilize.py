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
sees only the K_R band, its 4-stage update is a degree-4 polynomial in the band
Gram matrix, which is block diagonal over the Bloch fibers of a periodic
support (see _fibers). Every fiber carries the same circulant mask form, so
_fiber_form builds each block once per class of fibers with the same band
(_classes), and it is factored once. The spectral constant comes from the
blocks (for a support with no period, one real block: see _real_form), and the
polynomial and the two half-multipliers fold into one block per fiber, so a
step is one batched matrix product. Long runs go K steps at a time: a pass
marches its chunk starts one S^K after another, and one product per table of
the first K powers with all of them gives every step's norms. When the blocks
would be too large the four stages go through the FFT, with no band matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, NumericalError, ValidationError
from .grid import (Grid, SpectralField, _check_count, _check_positive, _check_times,
                   _symbol_values, _write_csv, apply_semigroup,
                   ball_multiplier, from_coefficients, semigroup_multiplier,
                   to_coefficients)
from .symbols import MultiplierSymbol, _bracket_root, alpha_R as tail_inf
from .thick import SupportMask

_DT_SAFETY = 0.1  # dt_max = _DT_SAFETY / lam keeps the 4-stage update stable
# Up to this many entries in the stack of fiber blocks (N n for one fiber) a
# step is one batched product; beyond it the four-FFT-pair step is faster.
# One fiber, fold / matrix-free, us per step at K = 1 (2-core x86, 1 BLAS thread):
#   N n    N = 1024     N = 64^2      N = 128^2
#   2^18   199 / 277    209 / 450     260 / 2581
#   2^19   385 / 178    401 / 483     454 / 2605
#   2^20   745 / 193    804 / 692     831 / 2662
#   2^21       -       1560 / 450    1601 / 2615
# The crossover moves with N (2^18 to above 2^21); 2^19 keeps either loss
# under 3.5x on these grids, where 2^20 loses 3.9x at N = 1024.
_DENSE_STEP_MAX = 2 ** 19
_RECORD_BLOCK = 2 ** 16  # complex entries (1 MB) of states per record pass
# complex entries (768 kB) of the fold's K-step H table. K = 16 on criterion 08's stack: 2,385
# steps took 8.1 / 6.9 ms (forward / adjoint), 8.9 / 7.1 at K = 32 and 9.9 / 9.5 at K = 48; its
# 1.2M steps 5.0, 3.7 and 3.1 s (2-core x86, 1 BLAS thread, a loaded machine)
_CHUNK_TABLE = 3 * 2 ** 14
_FFT_STACK = 2 ** 12  # complex entries (64 kB) per stack sent through one batched FFT
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
        if not (0 < self.lam < math.inf and 2.0 <= self.mu < math.inf):
            raise ValidationError(
                f"gains out of range at C = {self.C}, R = {self.R}: lam = {self.lam}, "
                f"mu = {self.mu}; need finite lam > 0 and mu >= 2")

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
    try:
        ecr = math.exp(C * R)
    except OverflowError:  # FeedbackConfig names C and R for infinite gains
        ecr = math.inf
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
# Band machinery. Coefficient arrays are to_coefficients outputs, dx^dim * FFT;
# scaling constants cancel in every ratio we form, and ||f||^2 = sum |c|^2 / box_measure.


def _band_indices(grid: Grid, R: float) -> np.ndarray:
    return np.flatnonzero(grid.rho.ravel() <= R)


def _fibers(mask: SupportMask, points: np.ndarray) -> tuple:
    """The flat lattice indices points grouped by the Bloch fibers of mask.

    With p the mask's period per axis and M = N / p, the mask's DFT lives on
    multiples of M, so the mask form couples mode k = r + M j only to
    k' = r + M j', through fhat[M (j - j')]: every fiber r of p^dim modes
    carries the same p^dim x p^dim circulant. Returns the points sorted
    stably by fiber, the number of them in each fiber and M.
    """
    m = tuple(n // p for n, p in zip(mask.grid.shape, mask.periods))
    k = np.unravel_index(points, mask.grid.shape)
    fiber = np.ravel_multi_index([a % r for a, r in zip(k, m)], m)
    return (points[np.argsort(fiber, kind="stable")],
            np.bincount(fiber, minlength=math.prod(m)), m)


def _classes(mask: SupportMask, modes: np.ndarray, counts: np.ndarray, first=None) -> tuple:
    """Fibers in classes by the local indices j (k = r + M j) of their band modes, counts per
    fiber, or with first by the offsets j - j[first] mod p, compared as bytes. Equal offsets give
    equal band blocks; equal j, equal column blocks too, row by row. Returns the first fiber of
    each fiber's class, and of each class."""
    k = np.unravel_index(modes, mask.grid.shape)
    j = np.ravel_multi_index([(a if first is None else a - a[first]) // (n // p) for a, n, p
                              in zip(k, mask.grid.shape, mask.periods)], mask.periods, mode="wrap")
    raw, w, ends, firsts = j.tobytes(), j.itemsize, np.cumsum(counts).tolist(), {}
    of = [firsts.setdefault(raw[a * w:z * w], f) for f, (a, z) in enumerate(zip([0] + ends, ends))]
    return of, [*firsts.values()]


def _fiber_form(fhat: np.ndarray, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Blocks T[..., a, b] = fhat[k_rows[..., a] - k_cols[..., b]] of the mask form, fhat =
    fftn(frac) / N^dim: one broadcast gather over any leading axes; negative k wrap."""
    kr, kc = np.unravel_index(rows, fhat.shape), np.unravel_index(cols, fhat.shape)
    return fhat[tuple(r[..., :, None] - c[..., None, :] for r, c in zip(kr, kc))]


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
    k = np.unravel_index(band, fhat.shape)
    mirror = np.ravel_multi_index(np.negative(k), fhat.shape, mode="wrap")  # -k mod N
    fixed = mirror == band
    reps = np.concatenate((np.flatnonzero(fixed), np.flatnonzero(mirror > band)))
    nf, m = np.count_nonzero(fixed), len(reps)
    # two blocks, on the columns q and -q: fhat[k_p - k_-q] = fhat[k_p + k_q]
    a, b = _fiber_form(fhat, band[reps], np.stack((band[reps], mirror[reps])))
    ra = 0.5 * (a.real + a.real.T)
    out = np.empty((2 * m - nf,) * 2)
    out[:m, :m] = ra + b.real
    out[m:, :m] = (b.imag - a.imag)[:, nf:].T
    out[:m, m:] = out[m:, :m].T
    out[m:, m:] = (ra - b.real)[nf:, nf:]
    out[:nf] *= math.sqrt(0.5)
    out[:, :nf] *= math.sqrt(0.5)
    return out


def _band_blocks(mask: SupportMask, band: np.ndarray, counts: np.ndarray) -> list:
    """Band Gram blocks: one per class of fibers with band modes, or one real block (_real_form)."""
    fhat = np.fft.fftn(mask.cell_fraction) / mask.cell_fraction.size
    if len(counts) == 1:
        return [_real_form(fhat, band)]
    counts = counts[counts > 0]  # the fibers with band modes, each a run of band
    start = np.cumsum(counts) - counts
    reps = _classes(mask, band, counts, np.repeat(start, counts))[1]
    return [_fiber_form(fhat, x, x) for x in (band[start[f]:start[f] + counts[f]] for f in reps)]


def _mask_form(frac: np.ndarray, c: np.ndarray) -> np.ndarray:
    """1_omega (the cell fractions) on a coefficient array, or on each of a
    stack of them (leading axes): one FFT pair. Passing shape and axes keeps
    a lone array at the plain transform's per-call cost."""
    axes = tuple(range(c.ndim - frac.ndim, c.ndim))
    return np.fft.fftn(frac * np.fft.ifftn(c, frac.shape, axes), frac.shape, axes)


def _stacks(n: int, size: int) -> list:
    """Slices of n arrays of size entries each, in stacks of at most _FFT_STACK
    entries (one array at least): one FFT call per stack, not per array."""
    k = max(1, _FFT_STACK // size)
    return [slice(i, i + k) for i in range(0, n, k)]


def _apply_band_gram(frac: np.ndarray, idx: np.ndarray,
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

    ||f||_omega is the grid's restricted norm, the Riemann sum
    (sum_i frac_i |f(x_i)|^2 dx)^(1/2) over cell fractions frac_i, not the
    integral over omega; the two constants differ at O((R dx)^2).
    Works on the band Gram matrix (the mask quadratic form compressed to
    the <= R frequency lattice, which quotients out the zero modes of
    K_R 1_omega K_R) and returns 1/sqrt(sigma_min) from dense eigvalsh of
    its Bloch fiber blocks, exact up to rounding, one eigvalsh per class of
    fibers (_band_blocks). A support with no period is one fiber,
    whose block it takes real, in the basis cos(k.x), sin(k.x) (_real_form):
    the same eigenvalues from a 3-4x cheaper eigensolve.
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
    ev = [np.linalg.eigvalsh(x) for x in _band_blocks(mask, band, counts)]
    lo, hi = min(e[0] for e in ev), max(e[-1] for e in ev)
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
    band, or c_band += P^H c in the adjoint order; T[:, band] Q is formed once per
    class of fibers (_classes). Larger stacks apply Q by Horner with A applied
    through the FFT: four FFT pairs per step on the state in lattice order. band
    lists the K_R band's flat positions in the stepper's layout. advance writes
    each step into the next row of a block, so a step allocates and copies
    nothing; e_full and e_half are stored complex, so applying them casts nothing.

    On fold runs of at least 2^10 steps record reads the norms of K steps at a
    time from tables and forms one state per chunk. With R the band restriction
    and e_rest = e_full off the band (padding included), 0 on it, S^k =
    diag(e_rest^k) + H_k R, H_1 = P + diag(e_full) R^T and H_{k+1} = e_full H_k
    + P H_k[band rows]; the adjoint powers are the S^k^H. K is the largest
    value whose H_k fit in _CHUNK_TABLE entries with K^2 <= steps. A pass
    marches up to K chunk starts x, each S^K of the one before (advance with
    the pair h_chunk, e_chunk); a chunk with picked states, or partial, steps
    once from its start. One product per table with all the starts gives the
    band norms, of H_k[band rows] x_band (bt) or H_k^H x (ht), and the rest
    norms, sum e_rest^2k |x|^2 (e2) plus, forward, Re <x_band, W_k x> = 2 Re
    <e_rest^k x, H_k x_band> + x_band^H Gamma_k x_band, where W_k = conj(2
    e_rest^k H_k)^T (wt) holds Gamma_k = H_k^H H_k over the rest rows in its
    band columns, zero by e_rest.
    """

    def __init__(self, grid: Grid, symbol: MultiplierSymbol, mask: SupportMask,
                 cfg: FeedbackConfig | None, dt: float,
                 adjoint_order: bool = False, steps: int = 1):
        self.lam = 0.0 if cfg is None else cfg.lam
        self.adjoint = bool(adjoint_order)
        self.shape = grid.shape
        self.order = np.arange(math.prod(grid.shape)).reshape(grid.shape)
        self.op, self.band, self.chunk = None, np.arange(0), 1
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
                self.order, (nf, points) = order, order.shape
                in_band = np.arange(points) < counts[:, None]
                self.band = np.flatnonzero(in_band)
                of, rep = ([0], [0]) if nf == 1 else _classes(mask, order.flat[self.band], counts)
                t = _fiber_form(np.fft.fftn(frac) / frac.size, order[rep], order[rep, :b])
                t *= in_band[rep, None, :b]
                e = e_half.reshape(-1)[order]
                self.e_full = (e * e).astype(complex)
                q = _stages(np.eye(b), lambda w: t[:, :b] @ w, self.coeffs)
                # t's padding columns are zero, so P's are exactly zero
                p = t @ q if len(rep) == nf else np.take(t @ q, np.searchsorted(rep, of), axis=0)
                p *= e[:, :, None]
                p *= e[:, None, :b]
                if self.adjoint:
                    self.op, self.reads, self.writes = p.conj(), slice(None), slice(b)
                else:
                    self.op = np.ascontiguousarray(p.transpose(0, 2, 1))
                    self.reads, self.writes = slice(b), slice(None)
                self.u = np.empty((nf, 1, self.op.shape[-1]), dtype=complex)
                if steps >= 2 ** 10:
                    self.chunk = max(1, min(_CHUNK_TABLE // p.size, math.isqrt(steps)))
                if self.chunk > 1:  # from P^T, or conj(P^T) in the adjoint order
                    self._tables(self.op.swapaxes(1, 2) if self.adjoint else self.op, in_band)
            else:
                self.band = idx = _band_indices(grid, cfg.R)
                self.e_half = e_half.astype(complex)
                self.z = z = np.zeros(grid.shape, dtype=complex)
                self.gram = lambda w: _apply_band_gram(frac, idx, w, z)
        else:
            self.e_full = semigroup_multiplier(grid, symbol, dt).astype(complex)
        if self.chunk > 1:  # record forms one state per chunk: whole chunks, about 2^10 steps
            self.block, rows = self.chunk * max(1, 2 ** 10 // self.chunk), self.chunk - 1
        else:  # steps per record pass, one state each
            self.block = rows = min(max(1, _RECORD_BLOCK // self.order.size), steps)
        self.rows = np.empty((rows + 1,) + self.order.shape, dtype=complex)  # a pass, or a chunk

    def _tables(self, pt: np.ndarray, in_band: np.ndarray) -> None:
        """e2, the march's H_K and e_rest^K, and ht (adjoint) or bt and wt: see the class."""
        K, (nf, b, points) = self.chunk, pt.shape
        ht = np.empty((nf, K, b, points), dtype=complex)  # contiguous per power
        er = np.empty((K, nf, points))
        ht[:, 0] = pt
        ht[:, 0, range(b), range(b)] += self.e_full[:, :b] * in_band[:, :b]
        er[0] = self.e_full.real * ~in_band
        for k in range(1, K):  # H_k^T = H_{k-1}^T e_full + H_{k-1}[band rows]^T P^T
            np.matmul(ht[:, k - 1, :, :b], pt, out=ht[:, k])
            ht[:, k] += ht[:, k - 1] * self.e_full[:, None]
            np.multiply(er[k - 1], er[0], out=er[k])
        self.e2 = np.square(er).repeat(2, axis=-1).reshape(K, -1)  # per float of a state
        self.e_chunk = er[-1].astype(complex)
        self.h_chunk = ht[:, -1].swapaxes(1, 2) if self.adjoint else ht[:, -1].copy()
        # J <= K starts a pass (K^2 <= steps), with their table products in _RECORD_BLOCK entries
        J = _RECORD_BLOCK // (nf * (points + (2 - self.adjoint) * K * b))
        self.starts = np.empty((max(1, min(K, J)) + 1, nf, points), dtype=complex)
        if self.adjoint:
            self.ht = ht
            return
        self.bt = (ht[..., :b] * in_band[:, None, None, :b]).swapaxes(1, 2).reshape(nf, b, K * b)
        ht[..., :b] *= ~in_band[:, None, None, :b]  # H_k[rest rows]^T
        gamma = np.vecdot(ht[..., None, :], ht[..., None, :, :])
        ht *= er.transpose(1, 0, 2)[:, :, None]
        np.multiply(np.conjugate(ht, out=ht), 2.0, out=ht)[..., :b] += gamma
        self.wt = ht.reshape(nf, K * b, points)

    def enter(self, c: np.ndarray) -> np.ndarray:
        """A copy of the lattice-order array c in the stepper's layout."""
        return c.reshape(-1)[self.order]

    def leave(self, c: np.ndarray) -> np.ndarray:
        """A copy of the state c in lattice order, shaped like the grid."""
        out = np.empty(c.size, dtype=complex)
        out[self.order] = c
        return out.reshape(self.shape)

    def advance(self, rows: np.ndarray, pair: tuple = ()) -> None:
        """Fill rows[1:], each row one step after the row before it. A fold step is c <- e c
        + c[reads] op for (op, e) = pair: one step by default, K for (h_chunk, e_chunk)."""
        steps = zip(rows, rows[1:])
        if self.lam == 0.0:
            for prev, c in steps:
                np.multiply(prev, self.e_full, out=c)
        elif self.op is not None:  # the fold reads and writes views of rows
            (op, e), u, u0 = pair or (self.op, self.e_full), self.u, self.u[:, 0]
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
        self.advance(rows := np.array([c, c]))
        c[...] = rows[1]
        return c

    def record(self, c: np.ndarray, norm_sq: np.ndarray, low_sq: np.ndarray,
               picks: list) -> tuple:
        """Write the squared norm and band norm of c and of the n = len(norm_sq) - 1
        <= block states after it. Returns the last state, a view that the next call may
        overwrite, and the states after the step counts in picks, in lattice order."""
        n, K = len(norm_sq) - 1, self.chunk
        if K == 1:
            rows = self.rows[:n + 1]
            rows[0] = c
            self.advance(rows)
            flat = rows.reshape(n + 1, -1)
            low = flat.take(self.band, axis=1)
            norm_sq[:], low_sq[:] = np.vecdot(flat, flat).real, np.vecdot(low, low).real
            return rows[-1], [self.leave(rows[i]) for i in picks]
        (nf, points), J, states = c.shape, len(self.starts) - 1, []
        low = c.reshape(-1)[self.band]
        norm_sq[0], low_sq[0] = np.vdot(c, c).real, np.vdot(low, low).real
        for s in range(0, n, J * K):  # passes of up to J chunks, the last maybe partial
            m = min(J * K, n - s)
            x = self.starts[:m // K + 1]  # the chunk starts, then the end of a last full chunk
            x[0] = c
            self.advance(x, (self.h_chunk, self.e_chunk))  # phase 1: the chunk starts
            at = [i - s for i in picks if s < i <= s + m]
            for j in sorted({i // K for i in at} | ({m // K} if m % K else set())):
                offsets = [i - j * K for i in at if i // K == j]
                rows = self.rows[:(m % K if j == m // K else max(offsets)) + 1]
                rows[0] = x[j]
                self.advance(rows)
                states += [self.leave(rows[i]) for i in offsets]
            c, x = (rows[-1], x) if m % K else (x[-1], x[:-1])  # a partial chunk steps last
            xf = x.swapaxes(0, 1)  # each fiber's starts as rows of xf; the norms spend x
            if self.adjoint:  # phase 2: every step's norms, from one product per table
                v, cross = np.matmul(xf, self.ht.reshape(nf, -1, points).swapaxes(1, 2)), 0.0
            else:  # Re <x_band, W_k x>; then the band values take over the memory
                v = np.matmul(xf, self.wt.swapaxes(1, 2))
                cross = np.matmul(v.view(float).reshape(nf, len(x), K, -1),
                                  xf[..., self.reads].view(float)[..., None]).sum(0)[..., 0]
                np.matmul(xf[..., self.reads], self.bt, out=v)
            low = np.square(v.view(float), out=v.view(float)).sum(0).reshape(len(x) * K, -1).sum(1)
            norm = np.square(w := x.view(float), out=w).reshape(len(x), -1) @ self.e2.T + cross
            norm_sq[s + 1:][:m], low_sq[s + 1:][:m] = (norm.reshape(-1) + low)[:m], low[:m]
        return c, states


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


def _step_count(T: float, dt: float) -> int:
    """Steps of at most dt to T, at least 1, less a slack of 1e-15 T/dt: T = n dt gives n steps
    and T/n stays well inside _Stepper's 1e-12 dt tolerance. Refuses counts no record can hold."""
    if not dt >= np.finfo(float).tiny:  # T/dt would be off by more than the slack
        raise ValidationError(f"dt = {dt:.3e} is subnormal and cannot count steps to T = {T}")
    q = T / dt * (1.0 - 1e-15)
    if not q < np.iinfo(np.intp).max // 8:  # bytes of the float64 records
        raise ValidationError(f"cannot record {q:.3e} steps to T = {T} at "
                              f"dt = {dt:.3e}: raise dt or shorten T")
    return max(1, math.ceil(q))


def run_stabilization(f0: SpectralField, F: MultiplierSymbol, mask: SupportMask,
                      cfg: FeedbackConfig | None, T: float,
                      dt: float | None = None, snapshot_every: int = 0,
                      adjoint_order: bool = False,
                      check_monotone: bool = False) -> StabilizationResult:
    """Integrate to time T, recording norms and V at every step.

    cfg = None with mask = None runs the open loop. fitted_rate is the
    least-squares slope of -log ||f(t)|| over the trailing half [T/2, T],
    and 0.0 when the log-norms there span at most 1e3 eps (1 + max |log ||f|||):
    the fit's rounding error is about 10 eps over that span, so below it no
    rate is measured to 1 %.
    snapshot_every > 0 stores every k-th coefficient array (plus the
    endpoints) for later residual checks. check_monotone
    enforces per-step V decrease; only meaningful when cfg.C is at least the
    spectral constant of the mask, so it is off by default.

    _Stepper.record advances a block of steps and records the norms, from
    one state per step or, on long fold runs, from the K-step tables. One
    vectorised pass per block then runs the checks, whose errors name the
    first non-finite step or the first step at which V rises.
    """
    _check_positive(T=T)
    if cfg is not None and mask is None:
        raise ValidationError("a feedback config needs the support mask it acts through")
    lam = 0.0 if cfg is None else cfg.lam
    if dt is None:
        dt = min(T / 1000.0, cfg.dt_max) if lam > 0 else T / 1000.0
    _check_positive(dt=dt)
    n_steps = _step_count(T, dt)
    dt = T / n_steps
    try:
        times, norm_sq, low_sq = np.arange(n_steps + 1) * dt, *np.empty((2, n_steps + 1))
    except (MemoryError, ValueError):
        raise ValidationError(f"cannot record {n_steps} steps to T = {T} at dt = {dt:.3e}: "
                              "raise dt or shorten T") from None
    grid = f0.grid
    stepper = _Stepper(grid, F, mask, cfg, dt, adjoint_order, n_steps)
    mu = cfg.mu if cfg is not None else 1.0

    # the state stays in the stepper's layout for the whole run
    c = stepper.enter(to_coefficients(f0))
    snaps = [(0.0, stepper.leave(c))] if snapshot_every > 0 else []
    for k in range(0, n_steps, stepper.block):
        end, s = min(k + stepper.block, n_steps), snapshot_every  # steps k .. end
        picks = ([*range(k - k % s + s, min(end + 1, n_steps), s)] + [n_steps] * (end == n_steps)
                 if s > 0 else [])  # the multiples of s past step k, and the last step
        ns, ls = norm_sq[k:end + 1], low_sq[k:end + 1]  # views
        # a block runs on past a blow-up; the first non-finite step is named
        with np.errstate(over="ignore", invalid="ignore"):
            c, states = stepper.record(c, ns, ls, [i - k for i in picks])
        ns /= grid.box_measure
        ls /= grid.box_measure
        j = k + np.argmin(np.isfinite(ns))
        if not np.isfinite(norm_sq[j]):
            raise NumericalError(
                f"state became non-finite at step {j} (t = {times[j]})")
        v = mu * ls + (ns - ls)
        j = np.argmax(v[1:] > v[:-1] * (1.0 + 1e-8))
        if check_monotone and v[j + 1] > v[j] * (1.0 + 1e-8):
            raise NumericalError(f"Lyapunov functional increased at step "
                                 f"{k + j + 1}: {v[j]} -> {v[j + 1]}")
        snaps += [(float(times[i]), x) for i, x in zip(picks, states)]

    high_sq = np.maximum(norm_sq - low_sq, 0.0)
    traj = Trajectory(grid=grid, times=times, norms=np.sqrt(norm_sq),
                      lyapunov=mu * low_sq + high_sq, low_norms=np.sqrt(low_sq),
                      high_norms=np.sqrt(high_sq), snapshots=tuple(snaps))
    tail = times >= 0.5 * T - 1e-12 * T
    logs = 0.5 * np.log(np.maximum(norm_sq[tail], 1e-300))
    e = math.frexp(T)[1]  # fit on times / 2^e: the same bits, and no underflow
    slope = np.polyfit(np.ldexp(times[tail], -e), logs, 1)[0] if tail.sum() >= 2 else 0.0
    rate = -np.ldexp(slope, -e)
    if abs(rate) * T < 1e-12 * (1 + abs(logs[-1])):  # only so flat a fit can be rounding alone
        lo, hi = logs.min(), logs.max()
        rate = rate if hi - lo > 1e3 * np.finfo(float).eps * (1 + max(hi, -lo)) else 0.0
    return StabilizationResult(trajectory=traj, fitted_rate=float(rate),
                               config=cfg, dt=dt, adjoint_order=adjoint_order)


def duhamel_residual(result: StabilizationResult, F: MultiplierSymbol,
                     mask: SupportMask) -> float:
    """Check the run against e^{-T(A+B)} f0 = e^{-TA} f0 - int_0^T e^{-(T-t)A} B f(t) dt.

    The right side is rebuilt from every stored snapshot with exact
    multipliers and a trapezoid rule over their times; the returned value is
    the relative coefficient-space mismatch. B is the feedback operator
    lam 1_omega K_R of the run's config (none for a free run). F is evaluated
    on the lattice once, and the snapshots go through B in _stacks.
    """
    cfg, traj = result.config, result.trajectory
    if len(traj.snapshots) < 3:
        raise ValidationError(f"need at least 3 stored snapshots, got {len(traj.snapshots)}")
    snaps, ts = traj.snapshots, np.array([s[0] for s in traj.snapshots])
    if not (math.isclose(ts[0], traj.times[0]) and math.isclose(ts[-1], traj.times[-1])):
        raise ValidationError("snapshots must span the full run")
    grid, T = traj.grid, ts[-1]
    _check_times(T - ts)
    vals = _symbol_values(grid, F)
    c0, cT = snaps[0][1], snaps[-1][1]
    rhs = np.exp(-T * vals) * c0
    if cfg is not None and cfg.lam > 0:
        band, frac = ball_multiplier(grid, cfg.R), mask.cell_fraction
        ends = np.concatenate((ts[:1], ts, ts[-1:]))
        w = 0.5 * (ends[2:] - ends[:-2])
        acc = np.zeros(c0.size, dtype=complex)
        for s in _stacks(len(ts), c0.size):
            ck = cfg.lam * np.stack([c for _, c in snaps[s]])
            # 1_omega K_R, or K_R 1_omega in the adjoint order
            b = (band * _mask_form(frac, ck) if result.adjoint_order
                 else _mask_form(frac, ck * band))
            e = np.exp(-np.multiply.outer(T - ts[s], vals.ravel()))
            # one snapshot at a time, so the sum is a plain loop's to the bit
            for term in w[s, None] * e * b.reshape(len(b), -1):
                acc += term
        rhs -= acc.reshape(grid.shape)
    return float(np.linalg.norm((cT - rhs).ravel()) / np.linalg.norm(c0.ravel()))


def write_trajectory_csv(result: StabilizationResult, path,
                         stride: int = 1) -> None:
    """One row per recorded step; stride > 1 thins to every k-th row plus
    the final one, for runs long enough that a full dump is unhelpful."""
    _check_count(stride=stride)
    traj = result.trajectory
    idx = [*range(0, traj.times.size - 1, stride), traj.times.size - 1]
    _write_csv(path, "t,norm,lyapunov,low_norm,high_norm",
               ((traj.times[i], traj.norms[i], traj.lyapunov[i],
                 traj.low_norms[i], traj.high_norms[i]) for i in idx))
