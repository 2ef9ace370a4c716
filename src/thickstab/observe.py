"""Observability estimates, cube classification, and dual control synthesis.

The observability side asks how much of ||e^{-TF} g||^2 a time integral of
restricted norms int_0^T ||e^{-tF} g||^2_omega dt can recover: each Gaussian
probe g yields required_C = (||e^{-TF}g||^2 - eps ||g||^2)_+ / integral, and a
probe dictionary estimates a lower bound on any workable constant, not a
certified one: the trapezoid integral can fall below the exact one. The dual
direction synthesizes an approximate null-control, constant on time slices,
from the HUM dual of penalized least squares: one unknown per lattice mode.

Cube classification splits the box into side-L cubes and tests, for the
damped field u = e^{-TG} g with G = F - inf F, whether every tested
derivative order satisfies ||d^beta u||^2_Q <= 2^(2|beta|+n)/eps *
(M_{|beta|})^2 ||u||^2_Q with the moments taken at half time. The mass
carried by the failing cubes is then at most eps * ||g||^2 summed over the
tested orders, a bound the report states alongside the labels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, MomentDivergenceError, ValidationError
from .grid import (GaussianProbe, Grid, SpectralField, _check_count, _check_positive,
                   _probe_headroom, _probe_widths, _symbol_values, _write_csv, _write_json,
                   from_coefficients, probe_admissible, sample_probe, semigroup_multiplier,
                   to_coefficients)
from .qa import log_moment
from .stabilize import _mask_form, _stacks, estimate_spectral_constant
from .symbols import MultiplierSymbol, shifted
from .thick import SupportMask, _whole_cells, make_ball_complement, mask_hash

_PROBE_WIDTHS = (0.5, 1.3)  # range of the probe widths make_probe_set draws
# complex entries (128 kB) of march states per inverse FFT in _restricted_march. The three
# scenario-mix marches (6 and 9 rows of 256, 4 of 512; 65 times) took 2.3-3.0 ms at one FFT
# per time; up to 22 % less at 2^12, 29-42 % less at 2^13 and 14-27 % less at 2^14 (2-core x86)
_MARCH_CHUNK = 2 ** 13


# ---------------------------------------------------------------------------
# Probe-based constant estimation


@dataclass(frozen=True)
class ProbeResult:
    index: int
    lhs: float
    obs_integral: float
    required_C: float


@dataclass(frozen=True)
class ObservabilityReport:
    symbol: MultiplierSymbol
    mask: SupportMask
    T: float
    epsilon: float
    quadrature_steps: int
    probes: tuple
    times: tuple
    integrands: tuple
    probe_results: tuple
    C_est: float


def _check_epsilon(epsilon: float) -> float:
    if not (np.isfinite(epsilon) and 0 < epsilon < 1):
        raise ValidationError(f"epsilon must lie in (0, 1), got {epsilon}")
    return float(epsilon)


def _restricted_march(grid: Grid, c: np.ndarray, e_step: np.ndarray,
                      frac: np.ndarray, steps: int) -> np.ndarray:
    """Restricted squared norms ||e^{-k dt F} f||^2_omega for k = 0..steps,
    one row per field.

    c stacks the coefficients of the fields along its first axis and is
    advanced in place by the one-step multiplier e_step, so it ends as the
    coefficients at the final time. e_step and frac broadcast against c: either
    one array shared by every field or one row per field. The states fill
    chunks of up to _MARCH_CHUNK complex entries (one time at least), each sent
    in place through one inverse FFT and summed per (time, row): the same
    per-row transforms and sums as one call per time, to the bit.
    """
    axes = tuple(range(2, c.ndim + 1))
    try:
        integrand = np.empty((len(c), steps + 1))
    except (MemoryError, ValueError):
        raise ValidationError(f"cannot record {steps} quadrature steps: lower the count") from None
    m = min(steps + 1, max(1, _MARCH_CHUNK // c.size))
    chunk = np.empty((m,) + c.shape, c.dtype)
    for k0 in range(0, steps + 1, m):
        n = min(m, steps + 1 - k0)
        for j in range(n):
            if k0 + j > 0:
                c *= e_step
            chunk[j] = c
        vals = np.fft.ifftn(chunk[:n], axes=axes, out=chunk[:n])
        vals /= grid.cell_measure
        sq = vals.real**2
        sq += vals.imag**2
        sq *= frac
        integrand[:, k0:k0 + n] = sq.reshape(n, len(c), -1).sum(axis=2).T * grid.cell_measure
    return integrand


def _time_integrals(grid: Grid, F: MultiplierSymbol, c: np.ndarray, frac: np.ndarray,
                    T: float, steps: int, freq_scales=(1.0,)) -> tuple:
    """The times of [0, T] in uniform steps, the restricted march of c on them
    under e^{-t F(|xi| s)}, one s per row or one for all, and its trapezoid
    integrals as floats."""
    e_step = np.stack([semigroup_multiplier(grid, F, T / steps, freq_scale=s)
                       for s in freq_scales])
    integrands = _restricted_march(grid, c, e_step, frac, steps)
    times = np.linspace(0.0, T, steps + 1)
    return times, integrands, tuple(map(float, np.trapezoid(integrands, times, axis=1)))


def _required_constant(lhs, g_sq, integral, epsilon):
    deficit = lhs - epsilon * g_sq
    if deficit <= 0:
        return 0.0
    if integral <= 0:
        return math.inf
    return deficit / integral


def estimate_observability_constant(F: MultiplierSymbol, mask: SupportMask,
                                    T: float, epsilon: float, probes,
                                    quadrature_steps: int = 64) -> ObservabilityReport:
    """Trapezoid estimate of a lower bound on the constant relating ||e^{-TF}g||^2
    to the restricted time integral, maximized over a Gaussian probe dictionary;
    the trapezoid can fall below the exact integral and overstate required_C.

    All probes are marched through the semigroup together, one row each.
    """
    epsilon = _check_epsilon(epsilon)
    _check_positive(T=T)
    if quadrature_steps < 32:
        raise ValidationError(
            f"need at least 32 quadrature steps, got {quadrature_steps}")
    probes = tuple(probes)
    if not probes:
        raise ValidationError("need at least one probe")
    grid = mask.grid
    box = grid.box_measure
    c = np.stack([to_coefficients(sample_probe(grid, p)) for p in probes])
    g_sq = [float(np.vdot(row, row).real) / box for row in c]
    times, integrands, integrals = _time_integrals(
        grid, F, c, mask.cell_fraction, T, quadrature_steps)
    lhs = [float(np.vdot(row, row).real) / box for row in c]
    results = tuple(
        ProbeResult(index=i, lhs=a, obs_integral=v,
                    required_C=_required_constant(a, g, v, epsilon))
        for i, (a, g, v) in enumerate(zip(lhs, g_sq, integrals)))
    return ObservabilityReport(
        symbol=F, mask=mask, T=float(T), epsilon=epsilon,
        quadrature_steps=int(quadrature_steps), probes=probes,
        times=tuple(float(t) for t in times),
        integrands=tuple(map(tuple, integrands)), probe_results=results,
        C_est=max(0.0, *(r.required_C for r in results)))


def make_probe_set(grid: Grid, count: int, seed: int,
                   xi_fraction: float = 0.1) -> tuple:
    """Seeded dictionary of admissible probes.

    The first probe is a fixed anchor: the widest admissible Gaussian at the
    box center with no modulation, which keeps the dictionary's estimated
    constant away from the degenerate zero whenever the symbol is small near
    the origin. The rest draw centers uniformly, widths from _PROBE_WIDTHS, and
    modulations up to xi_fraction of each width's admissible headroom.
    """
    _check_count(count=count)
    if not 0.0 <= xi_fraction <= 1.0:
        raise ValidationError(f"xi_fraction must be in [0, 1], got {xi_fraction}")
    rng = np.random.default_rng(seed)
    lo, hi = _probe_widths(grid)
    l_hi, l_lo = min(_PROBE_WIDTHS[1], hi * 0.999), max(_PROBE_WIDTHS[0], lo * 1.001)
    if not l_lo <= l_hi:
        raise ValidationError(f"no admissible width in {_PROBE_WIDTHS} on this grid "
                              f"(need {lo:.4g} <= l <= {hi:.4g})")
    mid = (0.5 * grid.extent,) * grid.dim
    probes = [GaussianProbe(width=l_hi, center=mid,
                            frequency=(0.0,) * grid.dim)]
    for _ in range(count - 1):
        l = float(rng.uniform(l_lo, l_hi))
        head = max(0.0, _probe_headroom(grid, l)) * xi_fraction
        x0 = tuple(float(v) for v in rng.uniform(0, grid.extent, size=grid.dim))
        xi_mag = float(rng.uniform(0, head))
        if grid.dim == 1:
            xi0 = (xi_mag * (1.0 if rng.uniform() < 0.5 else -1.0),)
        else:
            ang = rng.uniform(0, 2 * math.pi)
            xi0 = (xi_mag * math.cos(ang), xi_mag * math.sin(ang))
        probes.append(GaussianProbe(width=l, center=x0, frequency=xi0))
    return tuple(probes)


def write_report_json(report: ObservabilityReport, path) -> None:
    payload = {
        "symbol": report.symbol.describe(),
        "mask_hash": mask_hash(report.mask),
        "T": report.T,
        "epsilon": report.epsilon,
        "quadrature_steps": report.quadrature_steps,
        "C_est": report.C_est,
        "probes": [
            {"index": r.index,
             "center": list(report.probes[r.index].center),
             "frequency": list(report.probes[r.index].frequency),
             "width": report.probes[r.index].width,
             "lhs": r.lhs,
             "obs_integral": r.obs_integral,
             "required_C": r.required_C}
            for r in report.probe_results
        ],
    }
    _write_json(path, payload)


def shift_observability_identity_check(report: ObservabilityReport,
                                       mu: float) -> bool:
    """Recompute the report for the symbol shifted down by mu and test the
    exact scalings lhs -> e^{2 T mu} lhs, integrand(t) -> e^{2 t mu} * it."""
    shifted_report = estimate_observability_constant(
        shifted(report.symbol, float(mu)), report.mask, report.T,
        report.epsilon, report.probes, report.quadrature_steps)
    tol = 1e-10
    for r0, r1 in zip(report.probe_results, shifted_report.probe_results):
        want = r0.lhs * math.exp(2.0 * report.T * mu)
        if abs(r1.lhs - want) > tol * max(abs(want), 1e-300):
            return False
    for row0, row1 in zip(report.integrands, shifted_report.integrands):
        for t, a, b in zip(report.times, row0, row1):
            want = a * math.exp(2.0 * t * mu)
            if abs(b - want) > tol * max(abs(want), 1e-300):
                return False
    return True


# ---------------------------------------------------------------------------
# Necessity scan: drag a probe center across the box and watch required_C


@dataclass(frozen=True)
class NecessityScan:
    centers: tuple
    required: tuple
    xi0: tuple
    width: float
    witness_index: int | None

    @property
    def witness(self):
        if self.witness_index is None:
            return None
        return self.centers[self.witness_index]


def necessity_probe_scan(F: MultiplierSymbol, mask: SupportMask, T: float,
                         epsilon: float, C: float, centers, width: float,
                         quadrature_steps: int = 64) -> NecessityScan:
    """Test the (C, epsilon) estimate on probes centered along the schedule.

    The modulation xi0 is picked on the frequency lattice to minimize F
    subject to e^{-2 T F(|xi0|)} > epsilon, the regime where the left side
    cannot be absorbed by the eps ||g||^2 slack. The required constants come
    from estimate_observability_constant on the scheduled probes, so the
    scan shares its rules, among them at least 32 quadrature steps; the
    width must make an unmodulated probe admissible (probe_admissible).
    Returns the per-center required constants and the first center whose
    probe defeats C.
    """
    epsilon = _check_epsilon(epsilon)
    _check_positive(T=T, C=C)
    if len(centers) == 0:
        raise ValidationError("the schedule of probe centers is empty")
    grid = mask.grid
    if not probe_admissible(grid, GaussianProbe(width, (0.0,) * grid.dim, (0.0,) * grid.dim)):
        raise ValidationError(f"probe width {width} is not admissible on this grid")
    ok = grid.rho.ravel() <= _probe_headroom(grid, width)
    fvals = _symbol_values(grid, F).ravel()[ok]
    cutoff = -math.log(epsilon) / (2.0 * T)
    eligible = fvals < cutoff
    if not np.any(eligible):
        raise ValidationError(
            "no admissible modulation satisfies e^{-2 T F(|xi0|)} > epsilon; "
            "this scan needs the symbol to dip below -log(epsilon)/(2T) "
            "(satisfied whenever inf F <= 0), or a larger epsilon / smaller T")
    pick = np.flatnonzero(ok)[np.argmin(np.where(eligible, fvals, np.inf))]
    xi0 = tuple(float(grid.axis_xi[i])
                for i in np.unravel_index(pick, grid.shape))

    probes = [GaussianProbe(width=float(width), center=x0, frequency=xi0)
              for x0 in centers]
    report = estimate_observability_constant(F, mask, T, epsilon, probes,
                                             quadrature_steps)
    req = tuple(r.required_C for r in report.probe_results)
    witness = next((k for k, r in enumerate(req) if r > C), None)
    return NecessityScan(centers=tuple(centers), required=req,
                         xi0=xi0, width=float(width), witness_index=witness)


# ---------------------------------------------------------------------------
# Kovrijkine-style growth of the spectral constant in R


@dataclass(frozen=True)
class KovrijkineFit:
    R_values: tuple
    constants: tuple
    intercept: float
    slope: float
    reference_slope: float


def kovrijkine_empirical(mask: SupportMask, R_ladder, C_n: float = 10.0,
                         seed: int = 0) -> KovrijkineFit:
    """Fit log C_emp = a + b R over an R ladder and report the certificate's
    reference slope C_n * L * log(C_n / gamma) for comparison.

    The constants come from a direct eigensolve, so seed has no effect; it
    is still accepted because the benchmark workloads pass seed=0."""
    if mask.certificate is None:
        raise ValidationError(
            "mask carries no thickness certificate; build it with a "
            "constructor that certifies (gamma, L) or attach one")
    gamma, L, _stride = mask.certificate
    if not (np.isfinite(C_n) and C_n > 1):
        raise ValidationError(f"C_n must exceed 1, got {C_n}")
    R_values = tuple(float(r) for r in R_ladder)
    if len(R_values) < 2:
        raise ValidationError("need at least two R values to fit a slope")
    consts = tuple(estimate_spectral_constant(mask, r) for r in R_values)
    slope, intercept = np.polyfit(np.array(R_values), np.log(consts), 1)
    ref = C_n * L * math.log(C_n / gamma)
    return KovrijkineFit(R_values=R_values, constants=consts,
                         intercept=float(intercept), slope=float(slope),
                         reference_slope=float(ref))


# ---------------------------------------------------------------------------
# Good/bad cubes


@dataclass(frozen=True)
class CubeReport:
    L: float
    epsilon: float
    beta_max: int
    shape: tuple
    labels: np.ndarray
    worst_beta: tuple
    worst_ratio: np.ndarray
    cube_mass: np.ndarray
    bad_mass: float
    mass_budget: float
    tested_weight: float
    tail_weight: float

    @property
    def bad_fraction(self) -> float:
        return float(np.count_nonzero(~self.labels)) / self.labels.size


def _multi_indices(dim: int, beta_max: int):
    """Every beta with |beta| <= beta_max, in lexicographic order."""
    return [beta for beta in np.ndindex(*(beta_max + 1,) * dim)
            if sum(beta) <= beta_max]


def _cube_sums(sq: np.ndarray, W: int, dim: int) -> np.ndarray:
    """Sums over the W^dim blocks of sq, viewed as (n, W, n, W, ...)."""
    n = sq.shape[0] // W
    return sq.reshape((n, W) * dim).sum(axis=tuple(range(1, 2 * dim, 2)))


def classify_cubes(g: SpectralField, F: MultiplierSymbol, T: float,
                   epsilon: float, L: float, beta_max: int) -> CubeReport:
    """Label side-L cubes good/bad for u = e^{-TG} g, G = F - inf F.

    A cube is good when every tested beta with |beta| <= beta_max satisfies
    ||d^beta u||^2_Q <= 2^(2|beta|+n)/eps * M_{|beta|}^2 * ||u||^2_Q, with
    M_k the half-time moments sup_r r^k e^{-(T/2) G(r)}. The report carries
    the per-cube worst ratio, the mass on bad cubes, and the eps ||g||^2
    budget that mass is guaranteed to respect over the tested orders.
    """
    epsilon = _check_epsilon(epsilon)
    _check_positive(T=T)
    if not isinstance(beta_max, (int, np.integer)) or not (0 <= beta_max <= 8):
        raise ValidationError(
            f"beta_max must be an integer in [0, 8], got {beta_max}")
    grid = g.grid
    W = _whole_cells(grid, L, "cube side L", tile=True)
    n = grid.dim
    f_rho = _symbol_values(grid, F).ravel()  # checked before inf F is scanned
    base = shifted(F, F.inf_value)  # G = F - inf F, zero infimum
    t_half = 0.5 * T

    # moments used in the thresholds: the continuum optimizer value, nudged
    # up by 1e-9 and floored by the exact lattice supremum so the bad-mass
    # chain is airtight on this grid
    rho_flat = grid.rho.ravel()
    g_rho = np.maximum(f_rho - F.inf_value, 0.0)
    log_rho = np.log(rho_flat, out=np.full_like(rho_flat, -np.inf), where=rho_flat > 0)
    log_m = {}
    for k in range(1, beta_max + 1):  # no threshold reads M_0
        try:
            lm, _ = log_moment(base, k, scale=t_half)
        except MomentDivergenceError as err:
            if F.is_bounded():  # infinite at every T
                raise
            raise ValidationError(f"T = {T} is too small for the half-time moments sup_r "
                                  f"r^k e^(-(T/2) G(r)) to be finite ({err}); raise T") from None
        grid_lm = np.max(k * log_rho - t_half * g_rho)
        log_m[k] = max(lm + math.log1p(1e-9), float(grid_lm))

    cu = to_coefficients(g) * np.exp(-T * g_rho).reshape(grid.shape)
    u_vals = np.fft.ifftn(cu) / grid.cell_measure
    u_sq = _cube_sums(u_vals.real**2 + u_vals.imag**2, W, n) * grid.cell_measure

    xi_axes = np.ix_(*[grid.axis_xi] * n)
    shape = u_sq.shape
    worst_margin = np.full(shape, -np.inf)
    worst_beta = np.zeros(shape + (n,), dtype=int)
    good = np.ones(shape, dtype=bool)
    log_u = np.log(np.maximum(u_sq, 1e-300))
    for beta in _multi_indices(n, beta_max):
        k = sum(beta)
        if k == 0:
            continue
        dc = cu.copy()
        for axis, b in enumerate(beta):
            if b:
                dc *= (1j * xi_axes[axis]) ** b
        d_vals = np.fft.ifftn(dc) / grid.cell_measure
        d_sq = _cube_sums(d_vals.real**2 + d_vals.imag**2, W, n) \
            * grid.cell_measure
        log_thresh = (2 * k + n) * math.log(2.0) - math.log(epsilon) \
            + 2.0 * log_m[k]
        margin = np.log(np.maximum(d_sq, 1e-300)) - log_u - log_thresh
        good &= margin <= 0
        better = margin > worst_margin
        worst_margin = np.where(better, margin, worst_margin)
        worst_beta[better] = beta

    tested = sum(2.0 ** (-2 * sum(b) - n) for b in _multi_indices(n, beta_max))
    bad_mass = float(u_sq[~good].sum())
    g_sq = float(np.vdot(g.values, g.values).real) * grid.cell_measure
    return CubeReport(
        L=float(L), epsilon=epsilon, beta_max=int(beta_max), shape=shape,
        labels=good, worst_beta=tuple(map(tuple, worst_beta.reshape(-1, n))),
        worst_ratio=np.exp(worst_margin), cube_mass=u_sq,
        bad_mass=bad_mass, mass_budget=epsilon * g_sq,
        tested_weight=tested, tail_weight=(2.0 / 3.0) ** n - tested)


def write_cube_csv(report: CubeReport, path) -> None:
    _write_csv(path, "cube,label,worst_beta,ratio",
               ((i, "good" if good else "bad", ";".join(map(str, beta)), ratio)
                for i, (good, beta, ratio) in enumerate(zip(
                    report.labels.ravel(), report.worst_beta,
                    report.worst_ratio.ravel()))))


# ---------------------------------------------------------------------------
# Dual synthesis of an approximate null-control


@dataclass(frozen=True)
class ControlResult:
    times: tuple
    controls: tuple
    final_field: SpectralField
    cost: float
    ratio: float
    penalty: float
    cg_iterations: int


def _phi1(a: np.ndarray) -> np.ndarray:
    """(1 - e^{-a}) / a by expm1, with its limit 1 at a = 0."""
    return np.divide(-np.expm1(-a), a, out=np.ones_like(a, dtype=float), where=a != 0)


def _gramian_apply(theta, frac, z):
    """G z = sum_i theta_i 1_omega theta_i z, one FFT pair per stack."""
    return sum((theta[s] * _mask_form(frac, theta[s] * z)).sum(axis=0)
               for s in _stacks(len(theta), z.size))


def _gramian_diagonal(theta, frac):
    """diag G: every diagonal entry of the mask form is the mean of frac."""
    return float(np.mean(frac)) * (theta * theta).sum(axis=0)


def synthesize_control(f0: SpectralField, F: MultiplierSymbol,
                       mask: SupportMask, T: float, epsilon: float,
                       slices: int = 32, tol: float = 1e-9,
                       max_cg: int = 2000, penalty0: float = 1.0,
                       max_penalty_steps: int = 12) -> ControlResult:
    """Drive ||f(T)|| under epsilon * ||f0|| with controls through the mask.

    Minimizes sum_i dt ||h_i||^2_omega + (K/eps) ||f(T)||^2 over controls
    constant on each time slice, raising K tenfold from penalty0 until the
    target ratio is met. Each rung solves the HUM dual (dt + kappa G) z =
    e^{-TF} c0, kappa = K/eps, by conjugate gradients preconditioned with
    dt + kappa diag G (Jacobi), warm-started from the last rung, to an
    unpreconditioned relative residual tol in at most max_cg iterations;
    cg_iterations sums them over the rungs. G = sum_i theta_i 1_omega theta_i
    is the controllability Gramian, theta_i the exact propagator of slice i,
    applied to stacks of slices: one unknown per lattice mode. Then h_i =
    -kappa theta_i z on omega, and f(T) = dt z + r, r the solve's residual.
    """
    epsilon = _check_epsilon(epsilon)
    _check_positive(T=T, penalty0=penalty0)
    if not 0 < tol < 1:
        raise ValidationError(f"tol must lie in (0, 1), got {tol}")
    _check_count(slices=slices, max_cg=max_cg,
                 max_penalty_steps=max_penalty_steps)
    grid = f0.grid
    box = grid.box_measure
    c0 = to_coefficients(f0)
    f0_norm = math.sqrt(float(np.vdot(c0, c0).real) / box)
    dt = T / slices
    edges = tuple(i * dt for i in range(slices + 1))
    if f0_norm == 0.0:
        zero = tuple(np.zeros(grid.shape, dtype=complex) for _ in range(slices))
        return ControlResult(times=edges, controls=zero,
                             final_field=from_coefficients(grid, c0),
                             cost=0.0, ratio=0.0, penalty=penalty0,
                             cg_iterations=0)

    f_rho = _symbol_values(grid, F)
    theta = np.stack([np.exp(-(T - (i + 1) * dt) * f_rho) * dt
                      * _phi1(dt * f_rho) for i in range(slices)])
    y = np.exp(-T * f_rho) * c0
    y_norm = math.sqrt(float(np.vdot(y, y).real))
    frac = mask.cell_fraction
    gram_diag = _gramian_diagonal(theta, frac)

    z = np.zeros_like(y)
    penalty = penalty0
    best_ratio = math.inf
    total_iters = 0
    for _ in range(max_penalty_steps):
        kappa = penalty / epsilon
        precond = 1.0 / (dt + kappa * gram_diag)
        r = y - (dt * z + kappa * _gramian_apply(theta, frac, z))
        p = precond * r
        rs = float(np.vdot(r, p).real)
        res = math.sqrt(float(np.vdot(r, r).real))
        for iters in range(1, max_cg + 1):
            ap = dt * p + kappa * _gramian_apply(theta, frac, p)
            denom = float(np.vdot(p, ap).real)
            if denom <= 0:
                break
            a = rs / denom
            z += a * p
            r -= a * ap
            res = math.sqrt(float(np.vdot(r, r).real))
            if res <= tol * y_norm:
                break
            w = precond * r
            rs, rs_old = float(np.vdot(r, w).real), rs
            p = w + (rs / rs_old) * p
        if not res <= tol * y_norm:
            raise ConvergenceError(
                f"control solve stalled after {iters} conjugate-gradient "
                f"iterations (relative residual {res / y_norm:.3e})",
                residual=res / y_norm)
        total_iters += iters
        c_final = dt * z + r
        ratio = math.sqrt(float(np.vdot(c_final, c_final).real) / box) / f0_norm
        best_ratio = min(best_ratio, ratio)
        if ratio <= epsilon * (1.0 + 1e-9):
            axes = tuple(range(1, theta.ndim))
            controls = tuple(h for s in _stacks(len(theta), z.size) for h in np.where(
                frac > 0, -kappa * np.fft.ifftn(theta[s] * z, grid.shape, axes)
                / grid.cell_measure, 0.0))
            cost = dt * grid.cell_measure * sum(
                float(np.vdot(h, frac * h).real) for h in controls)
            return ControlResult(
                times=edges, controls=controls,
                final_field=from_coefficients(grid, c_final),
                cost=cost, ratio=ratio, penalty=penalty,
                cg_iterations=total_iters)
        penalty *= 10.0
    raise ConvergenceError(
        f"penalty ladder exhausted after {max_penalty_steps} steps; best "
        f"achieved ||f(T)||/||f0|| = {best_ratio:.6e} > epsilon = {epsilon}",
        residual=best_ratio)


# ---------------------------------------------------------------------------
# Bounded-symbol negative experiment


@dataclass(frozen=True)
class NegativeLimitCurve:
    h_values: tuple
    constants: tuple
    integrals: tuple
    times: tuple
    integrands: tuple


def negative_limit_experiment(F: MultiplierSymbol, psi: SpectralField,
                              radius: float, T0: float, h_ladder,
                              quadrature_steps: int = 64) -> NegativeLimitCurve:
    """Observability constants of a fixed profile from shrinking supports.

    For each h the support is the complement of the ball of radius r/h and
    the evolution uses the rescaled symbol F(|xi|/h); the reported constant
    is ||psi||^2 over the time integral of restricted norms. For bounded
    symbols with a non-negative limit the constants blow up as h -> 0, which
    is the number-level content of the no-uniform-constant phenomenon.
    """
    if not F.is_bounded():
        raise ValidationError(
            "this experiment assumes a finite non-negative limit, so the "
            "function F is therefore bounded; got an unbounded symbol")
    lim = F.limit_value()
    if not np.isfinite(lim) or lim < 0:
        raise ValidationError(
            f"the symbol must approach a finite non-negative limit, got {lim}")
    _check_positive(T0=T0)
    if quadrature_steps < 1:
        raise ValidationError(f"need at least 1 quadrature step, got {quadrature_steps}")
    h_values = tuple(float(h) for h in h_ladder)
    if not h_values or any(h <= 0 for h in h_values):
        raise ValidationError("h ladder must be positive")
    grid = psi.grid
    for h in h_values:
        if radius / h >= 0.5 * grid.extent:
            raise ValidationError(
                f"ball of radius {radius}/{h} does not fit the box; shrink "
                "the radius or enlarge the grid")
    c_psi = to_coefficients(psi)
    psi_sq = float(np.vdot(c_psi, c_psi).real) / grid.box_measure
    frac = np.stack([make_ball_complement(grid, radius / h).cell_fraction
                     for h in h_values])
    c = np.repeat(c_psi[None], len(h_values), axis=0)
    times, integrands, integrals = _time_integrals(
        grid, F, c, frac, T0, quadrature_steps, [1.0 / h for h in h_values])
    constants = tuple(psi_sq / v if v > 0 else math.inf for v in integrals)
    return NegativeLimitCurve(
        h_values=h_values, constants=constants, integrals=integrals,
        times=tuple(float(t) for t in times),
        integrands=tuple(map(tuple, integrands)))
